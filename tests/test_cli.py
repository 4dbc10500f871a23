"""Config validation, exit codes, and byte-deterministic reports."""

import json
import os

import pytest

from cellgamma.cli import main, run_config, validate_config
from cellgamma.errors import ConfigInvalid, EmptyReport
from cellgamma.report import (config_hash, emit_report, flatten_row,
                              format_float)

CELL_CONFIG = {
    "subcommand": "cell",
    "model": {"name": "double_well"},
    "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0]},
    "grid": {"n_normal": 48},
    "optimizer": {"n_random": 1},
    "seed": 3,
}


GAMMA_CONFIG = {"subcommand": "gamma",
                "model": {"name": "double_well", "params": {"space_dim": 2}},
                "jump": {"phi_plus": [1.0], "phi_minus": [-1.0],
                         "nu": [1.0, 0.0]},
                "gamma": {"epsilons": [0.125, 0.0625], "resolution": 64},
                "optimizer": {"n_random": 0}}

ORACLE_CONFIG = {"subcommand": "oracle", "model": {"name": "double_well"},
                 "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0]},
                 "oracle": {"sampling": 32}}

SHOCK_CONFIG = {"subcommand": "shock", "model": {"name": "burgers"},
                "jump": {"u_plus": [-1.0], "u_minus": [1.0], "nu_y": [1.0],
                         "nu_s": 0.0},
                "grid": {"n_normal": 64, "n_lateral": 4},
                "optimizer": {"max_iter": 200}}

# one config per subcommand and the report.csv header it must write:
# the stamped columns, then the runner's, in this order
_STAMP = "config_hash,version,seed,subcommand,"
_ENERGY = ("L_star,energy.grad_term,energy.potential_term,"
           "energy.nonlocal_term,energy.L,energy.total,")
RUNS = {
    "cell": (CELL_CONFIG,
             _STAMP + "model,bc," + _ENERGY + "iterations,converged,"
             "starts.0,starts.1"),
    "shock": (SHOCK_CONFIG,
              _STAMP + "model," + _ENERGY + "bc,iterations,converged,"
              "starts.0,space_time.nu.0,space_time.nu.1,"
              "space_time.nu_y_norm,space_time.rh_residuals.rh_residual_0"),
    "duality": ({"subcommand": "duality",
                 "duality": {"n_fluxes": 3, "resolution": 12}, "seed": 1},
                _STAMP + "flux_index,gap,projection_min,nonlocal_energy,"
                "neumann_energy,dirichlet_energy,flux_norm_sq,gap_ok,"
                "ordering_ok"),
    "gamma": (GAMMA_CONFIG,
              _STAMP + "model,epsilon,full_energy,predicted,ratio,error"),
    "oracle": (ORACLE_CONFIG,
               _STAMP + "model,sampling,geodesic_energy"),
    "catalog": ({"subcommand": "catalog"},
                _STAMP + "model,m,N,constraint,has_flux,has_entropy,"
                "psi_zero"),
}


def _write(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def _read_outputs(out):
    # every file but the wall-clock sidecar
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name != "timing.json"}


def test_cell_run_deterministic_bytes(tmp_path):
    # every subcommand runs twice to the same bytes and pinned header
    for sub, (config, header) in RUNS.items():
        cfg = _write(tmp_path, config, sub + ".json")
        out1, out2 = tmp_path / sub / "a", tmp_path / sub / "b"
        assert main([sub, "--config", cfg, "--out", str(out1)]) == 0
        assert main([sub, "--config", cfg, "--out", str(out2)]) == 0
        outputs = _read_outputs(out1)
        assert outputs == _read_outputs(out2)
        assert ("gamma_sweep.csv" in outputs) == (sub == "gamma")
        assert outputs["report.csv"].decode().split("\n")[0] == header
        doc = json.loads(outputs["report.json"])
        assert {r["subcommand"] for r in doc["rows"]} == {sub}
        # timing sidecar exists but stays out of the deterministic set
        assert (out1 / "timing.json").exists()
        assert b"wall" not in outputs["report.json"]


def test_malformed_config_exit_2_no_outputs(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    out = tmp_path / "out"
    assert main(["cell", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("config", [[1, 2], "cell"])
def test_non_object_config_exit_2_one_line(tmp_path, capsys, config):
    out = tmp_path / "out"
    assert main(["cell", "--config", _write(tmp_path, config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_empty_bc_list_exit_2_no_outputs(tmp_path):
    cfg = dict(CELL_CONFIG, bc=[])
    with pytest.raises(ConfigInvalid):
        validate_config(cfg)
    out = tmp_path / "out"
    assert main(["cell", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


@pytest.mark.parametrize("sub, config", [
    ("gamma", _without(GAMMA_CONFIG, "gamma")),
    ("duality", {"subcommand": "duality", "duality": {"n_fluxes": 2.0}}),
    ("cell", dict(CELL_CONFIG, optimizer={"max_iter": 100.0})),
    ("cell", dict(CELL_CONFIG, optimizer={"seed": 1.0})),
    ("cell", dict(CELL_CONFIG, grid={"n_normal": 48.0})),
], ids=["gamma_block_missing", "float_n_fluxes", "float_max_iter",
        "float_optimizer_seed", "float_n_normal"])
def test_rejected_config_exit_2_one_line(tmp_path, capsys, sub, config):
    # a block the runner reads, and a count written as a float, are
    # config errors found before any work, not compute failures
    with pytest.raises(ConfigInvalid):
        validate_config(config)
    out = tmp_path / "out"
    assert main([sub, "--config", _write(tmp_path, config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_unknown_keys_rejected(tmp_path):
    cfg = dict(CELL_CONFIG)
    cfg["bogus_knob"] = 1
    out = tmp_path / "out"
    assert main(["cell", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ConfigInvalid):
        validate_config(cfg)


def test_missing_required_jump_fields():
    cfg = {"subcommand": "cell", "model": {"name": "double_well"}}
    with pytest.raises(ConfigInvalid):
        validate_config(cfg)


def test_subcommand_mismatch_exit_2(tmp_path):
    cfg = _write(tmp_path, CELL_CONFIG)
    assert main(["shock", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2


def test_config_hash_stable_and_sensitive():
    h1 = config_hash(CELL_CONFIG)
    h2 = config_hash(json.loads(json.dumps(CELL_CONFIG)))
    assert h1 == h2
    changed = dict(CELL_CONFIG)
    changed["seed"] = 4
    assert config_hash(changed) != h1


def test_emit_report_empty_raises(tmp_path):
    with pytest.raises(EmptyReport):
        emit_report([], str(tmp_path))


def test_report_roundtrip_reemission_identical(tmp_path):
    rows = [{"a": 1.0 / 3.0, "nested": {"b": 2}, "seq": [0.1, 0.2]},
            {"a": 7.0, "extra": "x,y"}]
    p1 = tmp_path / "r1"
    p2 = tmp_path / "r2"
    emit_report(rows, str(p1))
    doc = json.loads((p1 / "report.json").read_text())
    emit_report(doc["rows"], str(p2))
    assert (p1 / "report.json").read_bytes() == (p2 / "report.json").read_bytes()
    assert (p1 / "report.csv").read_bytes() == (p2 / "report.csv").read_bytes()


def test_flatten_and_float_format():
    flat = flatten_row({"x": {"y": [1.5, {"z": 2.0}]}})
    assert flat["x.y.0"] == format_float(1.5)
    assert flat["x.y.1.z"] == format_float(2.0)
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_catalog_without_config(tmp_path):
    out = tmp_path / "cat"
    assert main(["catalog", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    names = {r["model"] for r in doc["rows"]}
    assert {"double_well", "micromagnetics_2d", "burgers"} <= names


def test_duality_small_run(tmp_path):
    cfg = {"subcommand": "duality",
           "duality": {"n_fluxes": 3, "resolution": 12}, "seed": 1}
    out = tmp_path / "dual"
    run_config(cfg, str(out))
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["rows"]) == 3
    assert all(r["gap_ok"] and r["ordering_ok"] for r in doc["rows"])


def test_gamma_run_writes_sweep_csv(tmp_path):
    cfg = GAMMA_CONFIG
    out = tmp_path / "g"
    run_config(cfg, str(out))
    # the two CSVs of a run share one dialect: LF line endings
    data = (out / "gamma_sweep.csv").read_bytes()
    assert b"\r" not in data and b"\r" not in (out / "report.csv").read_bytes()
    lines = data.decode().strip().split("\n")
    assert lines[0] == "epsilon,full_energy,predicted,ratio"
    assert len(lines) == 3


def test_flag_seed_overrides_config(tmp_path):
    cfg = _write(tmp_path, CELL_CONFIG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["cell", "--config", cfg, "--seed", "9",
                 "--out", str(out1)]) == 0
    assert main(["cell", "--config", cfg, "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "report.json").read_text())["rows"][0]
    d2 = json.loads((out2 / "report.json").read_text())["rows"][0]
    assert d1["seed"] == 9 and d2["seed"] == 3
    assert d1["config_hash"] != d2["config_hash"]


def test_flag_seed_overrides_optimizer_seed(tmp_path):
    def run(name, optimizer_seed, flags=()):
        cfg = dict(CELL_CONFIG, optimizer={"n_random": 1, "seed": optimizer_seed})
        out = tmp_path / name
        assert main(["cell", "--config", _write(tmp_path, cfg, name + ".json"),
                     *flags, "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["rows"][0]
        return {k: v for k, v in row.items() if k not in ("config_hash", "seed")}

    flagged = run("flag", 3, ["--seed", "5"])
    assert flagged == run("five", 5)
    assert flagged != run("three", 3)


def test_oracle_subcommand(tmp_path):
    cfg = {"subcommand": "oracle", "model": {"name": "double_well"},
           "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0]},
           "oracle": {"sampling": 128}}
    out = tmp_path / "o"
    run_config(cfg, str(out))
    doc = json.loads((out / "report.json").read_text())
    e = float(doc["rows"][0]["geodesic_energy"])
    assert abs(e - 8.0 / 3.0) <= 0.01 * (8.0 / 3.0)


def test_gamma_failed_row_written_before_exit_1(tmp_path, monkeypatch):
    import cellgamma.gamma as gamma
    from cellgamma.errors import EpsilonTooLarge
    real = gamma.build_recovery_field

    def failing(domain, cell, epsilon):
        if epsilon == 0.0625:
            raise EpsilonTooLarge("injected")
        return real(domain, cell, epsilon)

    monkeypatch.setattr(gamma, "build_recovery_field", failing)
    cfg = GAMMA_CONFIG
    out = tmp_path / "g"
    assert main(["gamma", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert rows[0]["error"] == ""
    assert rows[1]["error"] == "EpsilonTooLarge: injected"
    lines = (out / "gamma_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3 and lines[2].endswith("nan")


@pytest.mark.parametrize("phi_plus", [[1.0, 0.0], [float("nan")]])
def test_bad_jump_states_exit_1_one_line(tmp_path, capsys, phi_plus):
    cfg = dict(ORACLE_CONFIG, jump=dict(ORACLE_CONFIG["jump"], phi_plus=phi_plus))
    assert main(["oracle", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: compute failed: BadParams: ")
    assert err.count("\n") == 1


def test_shock_normal_of_wrong_length_exit_1_one_line(tmp_path, capsys):
    cfg = dict(SHOCK_CONFIG, jump=dict(SHOCK_CONFIG["jump"], nu_y=[1.0, 0.0]))
    assert main(["shock", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "cellgamma: compute failed: BadParams: nu_y of length 2 does not fit "
        "a flux with N = 1\n")


@pytest.mark.parametrize("speed", [[], ["fast"], [None], [[1.0]]])
def test_bad_advection_speed_exit_1_one_line(tmp_path, capsys, speed):
    cfg = dict(SHOCK_CONFIG, model={"name": "linear_advection",
                                    "params": {"speed": speed}})
    assert main(["shock", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: compute failed: BadParams: "
                          "linear_advection speed")
    assert err.count("\n") == 1


def test_non_integer_model_dimension_exit_1_one_line(tmp_path, capsys):
    cfg = dict(ORACLE_CONFIG, model={"name": "double_well",
                                     "params": {"space_dim": 2.7}})
    out = tmp_path / "o"
    assert main(["oracle", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: compute failed: BadParams: space_dim")
    assert err.count("\n") == 1
    assert not out.exists()


def test_non_library_error_exit_1_one_line(tmp_path, capsys, monkeypatch):
    import numpy as np
    import cellgamma.cli as cli

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(cli, "geodesic_energy_1d", broken)
    assert main(["oracle", "--config", _write(tmp_path, ORACLE_CONFIG),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "cellgamma: compute failed: LinAlgError: injected\n")


def test_shock_run_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, SHOCK_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["shock", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["shock", "--config", cfg, "--out", str(out2)]) == 0
    assert _read_outputs(out1) == _read_outputs(out2)
    (row,) = json.loads((out1 / "report.json").read_text())["rows"]
    assert row["subcommand"] == "shock" and row["bc"] == "space_time"
    assert row["space_time.nu.0"] == format_float(1.0)
    assert row["space_time.nu.1"] == format_float(0.0)
    assert row["space_time.nu_y_norm"] == format_float(1.0)
    assert row["space_time.rh_residuals.rh_residual_0"] == format_float(0.0)


@pytest.mark.parametrize("key, value", [("n_random", 0), ("amplitude", 0.2)])
def test_shock_cell_only_optimizer_key_exit_2_one_line(tmp_path, capsys, key,
                                                       value):
    # the shock runs w = 0 alone, so the random starts' count and size
    # would be ignored: naming either is a config error; the seed stays,
    # because the shock row reports it
    cfg = dict(SHOCK_CONFIG, optimizer={"seed": 2, key: value})
    out = tmp_path / "o"
    assert main(["shock", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "cellgamma: config error: subcommand 'shock' runs one start and "
        f"takes no optimizer.{key}\n")
    assert not out.exists()
    validate_config(dict(SHOCK_CONFIG, optimizer={"seed": 2}))


def test_shock_model_without_flux_exit_2(tmp_path, capsys):
    cfg = dict(SHOCK_CONFIG, model={"name": "double_well"})
    assert main(["shock", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "has no flux/entropy pair" in err and err.count("\n") == 1


def test_nan_optimizer_tolerance_exit_1_one_line(tmp_path, capsys):
    # NaN is valid JSON for Python and passes the schema's "number"; the
    # schema checks only the types of these numbers and OptimizerOptions
    # their bounds, so each out-of-range one exits 1 as well
    bad = [{"n_random": 1, "etol": float("nan")}, {"max_iter": 0},
           {"n_random": -1}, {"amplitude": -0.5}, {"seed": -1}]
    for i, optimizer in enumerate(bad):
        cfg = dict(CELL_CONFIG, optimizer=optimizer)
        out = tmp_path / f"o{i}"
        assert main(["cell", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cellgamma: compute failed: BadParams: ")
        assert err.count("\n") == 1
        assert not (out / "report.json").exists()


def test_module_entry_point_exit_codes(tmp_path):
    # python -m cellgamma.cli runs main() and exits with its code
    import subprocess
    import sys

    import cellgamma
    src = os.path.dirname(os.path.dirname(os.path.abspath(cellgamma.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "cat"

    def run(*args):
        return subprocess.run([sys.executable, "-m", "cellgamma.cli", *args],
                              env=env, capture_output=True, text=True)

    assert run("catalog", "--out", str(out)).returncode == 0
    for name in ("report.json", "report.csv", "timing.json"):
        assert (out / name).exists()
    assert run("bogus").returncode == 2
    bad = run("cell", "--config", _write(tmp_path, [1, 2]),
              "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert bad.stderr.startswith("cellgamma: config error: ")
    assert bad.stderr.count("\n") == 1
