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


def _write(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def _read_outputs(out):
    names = ("report.json", "report.csv")
    return {n: (out / n).read_bytes() for n in names}


def test_cell_run_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, CELL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cell", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cell", "--config", cfg, "--out", str(out2)]) == 0
    assert _read_outputs(out1) == _read_outputs(out2)
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["rows"][0]["subcommand"] == "cell"
    # timing sidecar exists but stays out of the deterministic set
    assert (out1 / "timing.json").exists()
    assert "wall" not in (out1 / "report.json").read_text()


def test_malformed_config_exit_2_no_outputs(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    out = tmp_path / "out"
    assert main(["cell", "--config", str(p), "--out", str(out)]) == 2
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
    cfg = {"subcommand": "gamma",
           "model": {"name": "double_well", "params": {"space_dim": 2}},
           "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0, 0.0]},
           "gamma": {"epsilons": [0.125, 0.0625], "resolution": 64},
           "optimizer": {"n_random": 0}}
    out = tmp_path / "g"
    run_config(cfg, str(out))
    assert (out / "gamma_sweep.csv").exists()
    lines = (out / "gamma_sweep.csv").read_text().strip().splitlines()
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
    cfg = {"subcommand": "gamma",
           "model": {"name": "double_well", "params": {"space_dim": 2}},
           "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0, 0.0]},
           "gamma": {"epsilons": [0.125, 0.0625], "resolution": 64},
           "optimizer": {"n_random": 0}}
    out = tmp_path / "g"
    assert main(["gamma", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert rows[0]["error"] == ""
    assert rows[1]["error"] == "EpsilonTooLarge: injected"
    lines = (out / "gamma_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3 and lines[2].endswith("nan")


ORACLE_CONFIG = {"subcommand": "oracle", "model": {"name": "double_well"},
                 "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0]},
                 "oracle": {"sampling": 32}}


@pytest.mark.parametrize("phi_plus", [[1.0, 0.0], [float("nan")]])
def test_bad_jump_states_exit_1_one_line(tmp_path, capsys, phi_plus):
    cfg = dict(ORACLE_CONFIG, jump=dict(ORACLE_CONFIG["jump"], phi_plus=phi_plus))
    assert main(["oracle", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: compute failed: BadParams: ")
    assert err.count("\n") == 1


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


SHOCK_CONFIG = {"subcommand": "shock", "model": {"name": "burgers"},
                "jump": {"u_plus": [-1.0], "u_minus": [1.0], "nu_y": [1.0],
                         "nu_s": 0.0},
                "grid": {"n_normal": 64, "n_lateral": 4},
                "optimizer": {"n_random": 0, "max_iter": 200}}


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


def test_shock_model_without_flux_exit_2(tmp_path, capsys):
    cfg = dict(SHOCK_CONFIG, model={"name": "double_well"})
    assert main(["shock", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "has no flux/entropy pair" in err and err.count("\n") == 1


def test_nan_optimizer_tolerance_exit_1_one_line(tmp_path, capsys):
    # NaN is valid JSON for Python and passes the schema's "number"
    cfg = dict(CELL_CONFIG, optimizer={"n_random": 1, "etol": float("nan")})
    out = tmp_path / "o"
    assert main(["cell", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellgamma: compute failed: BadParams: ")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists()
