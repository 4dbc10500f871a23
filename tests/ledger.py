"""The energy ledger: the results of fixed configurations, pinned in
``ledger.json`` next to this file, so that a change that moves one
shows.

The configurations are ``test_02``'s 64x64 micromagnetic wall (the
default multistart at seed 0) and one round of each benchmark workload
at seed 17, built by ``perfbench/workloads.py``.  Each gives one entry
per result: the energy, and for an optimizer's solution also L_star,
the iterations and the convergence flag.  ``poisson_large`` gives one
energy per timed call (Neumann, Dirichlet and the duality check of each
flux).

Energies and L_star must agree within the relative tolerance
``REL_TOL``, far above the spread between one and two OpenBLAS threads
(at most 4.4e-16 relative, on ``poisson_large``; ``test_02``'s energy
moves by 1 ulp); iterations and flags must agree exactly, as they do
under either thread count.

    PYTHONPATH=src python tests/ledger.py          # compare
    PYTHONPATH=src python tests/ledger.py --write  # rewrite the ledger
"""

import importlib.util
import json
import sys
from pathlib import Path

from cellgamma.cellopt import OptimizerOptions, compute_cell_energy
from cellgamma.grid import build_cell_grid, build_frame
from cellgamma.model import JumpData, catalog_lookup
from cellgamma.poisson import BcVariant, DualityReport

LEDGER = Path(__file__).with_name("ledger.json")
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 17
REL_TOL = 1e-12
_FLOATS = ("energy", "L_star")


def _entry(result):
    """The pinned numbers of one result."""
    if isinstance(result, tuple):  # nonlocal_energy: (energy, potential)
        return {"energy": float(result[0])}
    if isinstance(result, DualityReport):
        return {"energy": float(result.nonlocal_energy)}
    return {"energy": float(result.energy.total), "L_star": float(result.L_star),
            "iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _wall_64():
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 64, n_lateral=64)
    return [_entry(compute_cell_energy(jump, mm, g, BcVariant.NEUMANN,
                                       OptimizerOptions(seed=0)))]


def _workload_round(name):
    """One round of a benchmark workload, with the result of every timed
    call recorded."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    results, timed = [], module._timed

    def recorded(out, fn, *args, **kwargs):
        results.append(timed(out, fn, *args, **kwargs))
        return results[-1]

    module._timed = recorded
    workload = module.WORKLOADS[name](seed=SEED)
    workload.load()
    workload.prepare()
    workload.make_inputs()
    outcome = workload.run_round()
    if outcome.failures:
        raise RuntimeError(f"{name}: {outcome.failures}")
    return [_entry(r) for r in results]


CONFIGURATIONS = {
    "test_02_wall_64x64": _wall_64,
    "micromag_wall": lambda: _workload_round("micromag_wall"),
    "poisson_large": lambda: _workload_round("poisson_large"),
    "burgers_shock": lambda: _workload_round("burgers_shock"),
}


def measure():
    """Every configuration's entries, now."""
    return {name: run() for name, run in CONFIGURATIONS.items()}


def _agree(field, before, after):
    if field in _FLOATS and after is not None:
        return abs(after - before) <= REL_TOL * abs(before)
    return after == before


def compare(ledger, current):
    """One line per configuration, ``ok`` or every field that moved,
    before -> after; and whether every configuration is ok."""
    lines, ok = [], True
    for name in sorted(set(ledger) | set(current)):
        before, after = ledger.get(name), current.get(name)
        if before is None or after is None or len(before) != len(after):
            moved = [f"entries {before} -> {after}"]
        else:
            moved = [f"[{i}] {field} {b[field]!r} -> {a.get(field)!r}"
                     for i, (b, a) in enumerate(zip(before, after))
                     for field in b if not _agree(field, b[field], a.get(field))]
        lines.append(f"{name}: " + ("; ".join(moved) if moved else "ok"))
        ok = ok and not moved
    return lines, ok


def main(argv):
    current = measure()
    if "--write" in argv:
        LEDGER.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LEDGER}")
        return 0
    lines, ok = compare(json.loads(LEDGER.read_text()), current)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
