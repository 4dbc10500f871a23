"""Batch front-end: schema-validated JSON config, subcommand dispatch,
deterministic reports.

``SUBCOMMANDS`` maps each subcommand to its runner and to the config
blocks and jump keys it requires; the schema enum, the argparse
choices, ``validate_config`` and ``run_config`` read it.  A runner
returns only its own columns, and ``run_config`` puts config_hash,
version, seed and subcommand in front.

Exit codes: 0 success, 1 a requested computation failed, 2 invalid
configuration, a config whose top level is not a JSON object and a
schema integer that is not a JSON integer (2.0 included) among them.
Either failure prints one line on stderr, never a traceback.  Flags
override top-level config scalars.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cellopt import OptimizerOptions, compute_cell_energy
from .errors import ComputeFailed, ConfigInvalid
from .gamma import DomainSpec, run_gamma_sweep, write_sweep_csv
from .grid import TensorField, build_cell_grid, build_frame
from .hyperbolic import build_shock_grid, compute_shock_cell_energy
from .model import JumpData, SpaceTimeJumpData, catalog_lookup
from .oracle import geodesic_energy_1d
from .poisson import BcVariant, duality_gap, nonlocal_energy
from .report import config_hash, emit_report, emit_timing

_BC_NAMES = {"neumann": BcVariant.NEUMANN, "dirichlet": BcVariant.DIRICHLET}


def _opts(config):
    o = dict(config.get("optimizer", {}))
    o.setdefault("seed", config.get("seed", 0))
    return OptimizerOptions(**o)


def _model(config):
    m = config["model"]
    return catalog_lookup(m["name"], m.get("params"))


def _jump(config):
    j = config["jump"]
    return JumpData(phi_plus=j["phi_plus"], phi_minus=j["phi_minus"], nu=j["nu"])


def _run_cell(config, out_dir):
    specs = _model(config)
    jump = _jump(config)
    g = config.get("grid", {})
    frame = build_frame(jump.nu)
    grid = build_cell_grid(frame, g.get("n_normal", 128),
                           n_lateral=g.get("n_lateral"))
    bcs = config.get("bc", "neumann")
    if isinstance(bcs, str):
        bcs = [bcs]
    opts = _opts(config)
    # "bc" goes before the solution's columns; its value is the solution's
    return [{"model": specs.name, "bc": name,
             **compute_cell_energy(jump, specs, grid, _BC_NAMES[name],
                                   opts).to_dict()}
            for name in bcs]


def _run_shock(config, out_dir):
    specs = _model(config)
    if specs.flux is None or specs.entropy is None:
        raise ConfigInvalid(f"model {specs.name!r} has no flux/entropy pair")
    j = config["jump"]
    st = SpaceTimeJumpData(u_plus=j["u_plus"], u_minus=j["u_minus"],
                           nu_y=j["nu_y"], nu_s=j["nu_s"])
    g = config.get("grid", {})
    grid = build_shock_grid(st, g.get("n_normal", 128),
                            n_lateral=g.get("n_lateral"),
                            n_time=g.get("n_time", g.get("n_lateral", 8)))
    sol = compute_shock_cell_energy(st, specs.flux, specs.entropy, grid,
                                    _opts(config))
    return [{"model": specs.name, **sol.to_dict()}]


def _run_duality(config, out_dir):
    d = config.get("duality", {})
    n_fluxes = d.get("n_fluxes", 50)
    res = d.get("resolution", 16)
    seed = config.get("seed", 0)
    frame = build_frame(np.array([1.0, 0.0]))
    grid = build_cell_grid(frame, res, n_lateral=res)
    rng = np.random.Generator(np.random.Philox(key=(seed, 0)))
    rows = []
    for i in range(n_fluxes):
        M = TensorField(grid, rng.standard_normal(grid.shape + (1, 2)))
        rep = duality_gap(M, BcVariant.NEUMANN)
        e_n, _ = nonlocal_energy(M, BcVariant.NEUMANN, check_compat=False)
        e_d, _ = nonlocal_energy(M, BcVariant.DIRICHLET)
        m_sq = float(np.sum(grid.node_weights()[..., None, None]
                            * np.square(M.values)))
        rows.append({
            "flux_index": i,
            "gap": rep.gap, "projection_min": rep.J0_projection,
            "nonlocal_energy": rep.nonlocal_energy,
            "neumann_energy": e_n, "dirichlet_energy": e_d,
            "flux_norm_sq": m_sq,
            "gap_ok": rep.gap <= 1e-9 * (1.0 + m_sq),
            "ordering_ok": e_d <= e_n + 1e-9 * (1.0 + e_n),
        })
    return rows


def _run_gamma(config, out_dir):
    """Also writes gamma_sweep.csv; a failed epsilon is a row whose
    "error" is set, which run_config turns into ComputeFailed."""
    specs = _model(config)
    jump = _jump(config)
    g = config["gamma"]
    domain = DomainSpec(nu=jump.nu, resolution=g.get("resolution", 256),
                        offset=g.get("offset", 0.0))
    sweep = run_gamma_sweep(domain, jump, specs, g["epsilons"],
                            opts=_opts(config))
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(sweep, os.path.join(out_dir, "gamma_sweep.csv"))
    return [{"model": specs.name, **dataclasses.asdict(r)} for r in sweep]


def _run_oracle(config, out_dir):
    specs = _model(config)
    jump = _jump(config)
    sampling = config.get("oracle", {}).get("sampling", 200)
    value = geodesic_energy_1d(jump, specs, sampling=sampling)
    return [{"model": specs.name, "sampling": sampling,
             "geodesic_energy": value}]


def _run_catalog(config, out_dir):
    names = ["double_well", "micromagnetics_2d", "burgers",
             "linear_advection", "quadratic_entropy"]
    rows = []
    for name in names:
        params = {"speed": [1.0]} if name == "linear_advection" else {}
        specs = catalog_lookup(name, params)
        rows.append({
            "model": name, "m": specs.m,
            "N": specs.Psi.N, "constraint": specs.constraint.kind,
            "has_flux": specs.flux is not None,
            "has_entropy": specs.entropy is not None,
            "psi_zero": specs.Psi.is_zero,
        })
    return rows


_PHI_JUMP = ("model", "jump.phi_plus", "jump.phi_minus", "jump.nu")

# subcommand -> (runner(config, out_dir) -> rows, required blocks and
# block.key fields)
SUBCOMMANDS = {
    "cell": (_run_cell, _PHI_JUMP),
    "shock": (_run_shock, ("model", "jump.u_plus", "jump.u_minus",
                           "jump.nu_y", "jump.nu_s")),
    "duality": (_run_duality, ()),
    "gamma": (_run_gamma, _PHI_JUMP + ("gamma",)),
    "oracle": (_run_oracle, _PHI_JUMP),
    "catalog": (_run_catalog, ()),
}


def _block(properties, **extra):
    """Schema of a JSON object that takes only the listed properties."""
    return {"type": "object", "additionalProperties": False, **extra,
            "properties": properties}


_NUMBERS = {"type": "array", "items": {"type": "number"}}

CONFIG_SCHEMA = _block({
    "subcommand": {"enum": list(SUBCOMMANDS)},
    "model": _block({"name": {"type": "string"}, "params": {"type": "object"}},
                    required=["name"]),
    "jump": _block({
        **{k: _NUMBERS for k in ("phi_plus", "phi_minus", "nu",
                                 "u_plus", "u_minus", "nu_y")},
        "nu_s": {"type": "number"},
    }),
    "grid": _block({
        "n_normal": {"type": "integer", "minimum": 8},
        "n_lateral": {"type": "integer", "minimum": 1},
        "n_time": {"type": "integer", "minimum": 1},
    }),
    "bc": {"anyOf": [
        {"enum": list(_BC_NAMES)},
        {"type": "array", "items": {"enum": list(_BC_NAMES)}, "minItems": 1},
    ]},
    "optimizer": _block({
        "seed": {"type": "integer"},
        "max_iter": {"type": "integer"},
        "etol": {"type": "number"},
        "gtol_scale": {"type": "number"},
        "n_random": {"type": "integer"},
        "amplitude": {"type": "number"},
        "require_converged": {"type": "boolean"},
    }),
    "duality": _block({
        "n_fluxes": {"type": "integer", "minimum": 1},
        "resolution": {"type": "integer", "minimum": 8},
    }),
    "gamma": _block({
        "epsilons": dict(_NUMBERS, minItems=1),
        "resolution": {"type": "integer", "minimum": 32},
        "offset": {"type": "number"},
    }, required=["epsilons"]),
    "oracle": _block({"sampling": {"type": "integer", "minimum": 16}}),
    "seed": {"type": "integer", "minimum": 0},
    "output_dir": {"type": "string"},
}, required=["subcommand"])


def validate_config(config):
    import jsonschema
    # JSON Schema counts 2.0 as an integer; a count here must be an int
    base = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    types = base.TYPE_CHECKER.redefine("integer", lambda _, v: type(v) is int)
    strict = jsonschema.validators.extend(base, type_checker=types)
    try:
        jsonschema.validate(config, CONFIG_SCHEMA, cls=strict)
    except jsonschema.ValidationError as exc:
        raise ConfigInvalid(f"config rejected: {exc.message}") from exc
    sub = config["subcommand"]
    for path in SUBCOMMANDS[sub][1]:
        block, _, key = path.partition(".")
        if block not in config or (key and key not in config[block]):
            raise ConfigInvalid(f"subcommand {sub!r} requires {path}")
    for key in ("n_random", "amplitude") if sub == "shock" else ():
        if key in config.get("optimizer", {}):
            raise ConfigInvalid("subcommand 'shock' runs one start and takes "
                                f"no optimizer.{key}")
    return config


def run_config(config, out_dir):
    """Dispatch one validated config; writes report.json/report.csv
    (deterministic) and timing.json (sidecar) to out_dir.  A gamma sweep
    with a failed row writes every file, then raises ComputeFailed."""
    sub = config["subcommand"]
    t0 = time.perf_counter()
    rows = SUBCOMMANDS[sub][0](config, out_dir)
    wall = time.perf_counter() - t0
    # a runner's own value wins where it repeats a stamped column (a
    # solution's optimizer seed), but the stamped position stays
    stamp = {"config_hash": config_hash(config), "version": __version__,
             "seed": config.get("seed", 0), "subcommand": sub}
    paths = emit_report([{**stamp, **row} for row in rows], out_dir)
    emit_timing({"subcommand": sub, "wall_seconds": wall,
                 "rows": len(rows)}, out_dir)
    if any(row.get("error") for row in rows):
        raise ComputeFailed("one or more sweep rows failed")
    return paths


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigInvalid("the top level of the config must be a JSON object")
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cellgamma",
        description="Cell-problem energies, shock layers, and gamma sweeps")
    parser.add_argument("subcommand", choices=list(SUBCOMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", default=None,
                        help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config) if args.config else {}
        config.setdefault("subcommand", args.subcommand)
        if config["subcommand"] != args.subcommand:
            raise ConfigInvalid(
                f"config subcommand {config['subcommand']!r} does not match "
                f"the command line {args.subcommand!r}")
        if args.seed is not None:
            config["seed"] = args.seed
            optimizer = config.get("optimizer")
            if isinstance(optimizer, dict) and "seed" in optimizer:
                optimizer["seed"] = args.seed
        out_dir = args.out or config.get("output_dir", "cellgamma_out")
        validate_config(config)
        run_config(config, out_dir)
    except ConfigInvalid as exc:
        print(f"cellgamma: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # library errors and any other failure of the computation (say a
        # LinAlgError from numpy) end the run with one line, not a traceback
        print(f"cellgamma: compute failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
