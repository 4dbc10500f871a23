"""Check that two traced runs with the same seed agree exactly.

    python3 perfbench/determinism.py --seed 0 [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload (all three by default) and
compares every count metric, the energies, ``unconverged_frac`` and
``*.iterations_best``.  Prints each difference and exits 1 if there is
one; times are not compared.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import EXACT_UNITS, OUT_DIR, PER_LAYER_UNITS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = sorted(name for name, unit in PER_LAYER_UNITS.items()
               if unit in EXACT_UNITS or name == "unconverged_frac")


def traced_run(workload, seed):
    subprocess.run([sys.executable, str(RUN), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    summary = OUT_DIR / f"{workload}-seed{seed}-trace1.json"
    return json.loads(summary.read_text())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                   default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    differences = 0
    for workload in args.workload:
        a, b = (traced_run(workload, args.seed) for _ in range(2))
        pairs = [(name, a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for name in EXACT]
        # every round of a run already gave the same energies
        pairs.append(("energies", a["energies"][0], b["energies"][0]))
        for name, first, second in pairs:
            if first != second:
                differences += 1
                print(f"{workload}: {name} differs: {first} != {second}")
        print(f"{workload}: {len(pairs)} values compared, "
              f"energy {a['energies'][0]}, correct {a['correct']} {b['correct']}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
