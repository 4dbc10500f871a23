"""The benchmark's workloads still run against the package: every call
they make (``init_profiles``, ``energy_gradient``,
``OptimizerOptions(strategies=...)``, ``nonlocal_energy(check_compat=...)``
and the rest) exists and returns what they check.

Energies and iteration counts are not pinned here: the benchmark
compares them between commits, and a change to the optimizer may move
them on purpose.
"""

import importlib.util
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["micromag_wall", "poisson_large",
                                  "burgers_shock"])
def test_workload_rounds_run_and_repeat(name):
    workload = _load_workloads().WORKLOADS[name](seed=1)
    workload.load()
    workload.prepare()
    workload.make_inputs()
    first, second = workload.run_round(), workload.run_round()
    assert first.problems > 0
    assert first.failures == [] and second.failures == []
    assert first.fingerprint() == second.fingerprint()
