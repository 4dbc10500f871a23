"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_sample.py WORKLOAD SEED

Set-up is the import of numpy and ``cellgamma``, the grids, and the
first call per (grid, bc) that fills the per-grid caches.  ``run.py``
starts this script a few times, one after another, and reports the
median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

t0 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402  (the import is timed)

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workload.load()
workload.prepare()
print(repr(time.perf_counter() - t0))
