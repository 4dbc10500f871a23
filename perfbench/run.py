"""End-to-end and per-layer benchmark of cellgamma.

    python3 perfbench/run.py --workload micromag_wall --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from
``src/`` and runs on the numpy-only kernel path (``CELLGAMMA_FORCE_PY``),
which is the path the tests take when the compiled kernels are absent.

A run measures set-up a few times, each in a fresh interpreter, then
repeats the workload's round of problems (see ``workloads.py``) until
``--seconds`` have passed; the first round always runs, and a round
starts only if it is expected to end in time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
round untraced, then traced rounds with spans around the public entry
points (see ``tracer.py``), and reports the per-layer metrics of one
traced round; ``trace.overhead_s`` is the traced minus the untraced
round time.  Counts are per round and must repeat exactly from round to
round.

Every line but the last is for people: the environment, each metric by
name and unit, the failed and unconverged shares.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A summary and, when traced, every span go to ``.perfbench/`` in the
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Threaded BLAS gives these small and banded products no speed-up here
# and only adds noise from the second core, so the run is one thread
# unless the environment says otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracer import Tracer  # noqa: E402  (numpy must see the settings above)
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLE = Path(__file__).resolve().parent / "setup_sample.py"
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "energy": "1",
                    "solve_ms_p50": "ms", "solve_ms_p90": "ms"}
PER_LAYER_UNITS = {
    "poisson.solve_calls": "count", "poisson.solve_s": "s",
    "poisson.solve_ms_mean": "ms", "poisson.self_s": "s",
    "poisson.fft_s": "s", "poisson.gradient_s": "s",
    "poisson.max_residual": "1",
    "kernels.solve_calls": "count", "kernels.solve_s": "s",
    "kernels.solve_flops": "flop", "kernels.solve_bytes": "B",
    "kernels.factor_calls": "count", "kernels.factor_s": "s",
    "cellopt.gradient_calls": "count", "cellopt.solves_per_gradient": "1",
    "cellopt.scale_calls": "count", "cellopt.self_s": "s",
    "cellopt.iterations_best": "count",
    "hyperbolic.evaluations": "count", "hyperbolic.scale_calls": "count",
    "hyperbolic.evals_per_iteration": "1", "hyperbolic.solve_s": "s",
    "hyperbolic.iterations_best": "count",
    "unconverged_frac": "1", "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "flop", "B")


def setup_in_child(workload, seed):
    done = subprocess.run(
        [sys.executable, str(SETUP_SAMPLE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(workload):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "HAVE_COMPILED": workload.have_compiled,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "process_threads": threads,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def percentile(values, q):
    """The q-th percentile (q in 1..99) of the samples, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class _Rounds:
    """Runs rounds until the deadline and keeps their outcomes."""

    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.outcomes = []

    def run_one(self):
        t0 = time.perf_counter()
        self.outcomes.append(self.workload.run_round())
        return time.perf_counter() - t0

    def time_left_for(self, last):
        return time.perf_counter() + last <= self.deadline

    @property
    def calls(self):
        return sum(len(o.call_seconds) for o in self.outcomes)


def wall(outcome):
    return sum(outcome.call_seconds)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "cellgamma" / "__init__.py").is_file():
        print(f"perfbench: no cellgamma package under {SRC}", file=sys.stderr)
        return 2
    os.environ["CELLGAMMA_FORCE_PY"] = "1"
    sys.path.insert(0, str(SRC))

    setup_samples = [setup_in_child(args.workload, args.seed)
                     for _ in range(SETUP_SAMPLES)]
    w = WORKLOADS[args.workload](args.seed)
    modules = w.load()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(modules)
    w.prepare()
    if tracer:
        tracer.uninstall()
    w.make_inputs()

    begin = time.perf_counter()
    plain = _Rounds(w, begin + args.seconds)
    traced = _Rounds(w, begin + args.seconds)
    if tracer:
        plain.run_one()  # the untraced baseline for the overhead
        tracer.install(modules)
        try:
            while True:
                tracer.run = len(traced.outcomes)
                last = traced.run_one()
                if not traced.time_left_for(last):
                    break
        finally:
            tracer.uninstall()
    else:
        while True:
            last = plain.run_one()
            if plain.calls >= w.min_calls and not plain.time_left_for(last):
                break

    outcomes = plain.outcomes + traced.outcomes
    attempted = sum(o.problems for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    deterministic = len({o.fingerprint() for o in outcomes}) == 1
    first = outcomes[0]

    if tracer:
        per_round = [tracer.layer_metrics({i}) for i in range(len(traced.outcomes))]
        setup_layers = tracer.layer_metrics({"setup"})
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            if PER_LAYER_UNITS[name] in EXACT_UNITS and len(set(values)) > 1:
                deterministic = False
            metrics[name] = statistics.median(values)
        for name in ("kernels.factor_calls", "kernels.factor_s"):
            metrics[name] += setup_layers[name]
        metrics["cellopt.iterations_best"] = 0
        metrics["hyperbolic.iterations_best"] = 0
        if w.optimizer_layer:
            metrics[f"{w.optimizer_layer}.iterations_best"] = first.iterations_best
        metrics["unconverged_frac"] = first.unconverged / first.problems
        metrics["trace.overhead_s"] = (
            statistics.median(wall(o) for o in traced.outcomes)
            - statistics.median(wall(o) for o in plain.outcomes))
        units = PER_LAYER_UNITS
    else:
        calls_ms = [1000.0 * s for o in outcomes for s in o.call_seconds]
        metrics = {
            "wall_s": statistics.median(wall(o) for o in outcomes),
            "setup_s": statistics.median(setup_samples),
            "energy": first.energy,
            "solve_ms_p50": percentile(calls_ms, 50) if calls_ms else 0.0,
            "solve_ms_p90": percentile(calls_ms, 90) if calls_ms else 0.0,
        }
        units = END_TO_END_UNITS

    env = environment(w)
    unconverged = sum(o.unconverged for o in outcomes)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(outcomes)} calls={plain.calls + traced.calls}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r} {units[name]}")
    print(f"  {'failed_frac':32s} {len(failures) / attempted!r} "
          f"({len(failures)} of {attempted})")
    print(f"  {'unconverged_frac':32s} {unconverged / attempted!r}")
    for f in sorted(set(failures)):
        print(f"  failure: {f}")
    if not deterministic:
        print("  failure: rounds of the same seed disagree")

    correct = not failures and deterministic
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    summary = dict(result, workload=w.name, seed=args.seed,
                   environment=env, setup_samples=setup_samples,
                   round_walls=[wall(o) for o in outcomes],
                   energies=[o.energies for o in outcomes],
                   unconverged_frac=unconverged / attempted,
                   failures=failures)
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
