"""Timed set-up of one workload: import, input generation, xi warm-up.

Run as ``python3 -m cdfbench.setup <workload> <seed>`` (with ``benchmarks``
and ``src`` on PYTHONPATH) to time one set-up in a fresh interpreter; the
last line printed is the set-up time in seconds.  Only the standard library
is imported at module level, so the timed region includes the import of
numpy, scipy, mpmath and the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent


def timed_setup(workload: str, seed: int, root: Path, smoke: bool = False):
    """Return (seconds, workload object) for one set-up in this process."""
    t0 = time.perf_counter()
    from .workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, root, smoke)
    wl.sim_case()
    wl.warm_up()
    return time.perf_counter() - t0, wl


def setup_in_fresh_interpreter(root: Path, workload: str, seed: int) -> float:
    """Seconds of one set-up in a new interpreter, run from `root`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(BENCH_DIR), str(root / "src")])}
    res = subprocess.run(
        [sys.executable, "-m", "cdfbench.setup", workload, str(seed)],
        cwd=root, env=env, capture_output=True, text=True, timeout=170,
        check=True)
    return float(res.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1], int(sys.argv[2]), Path.cwd())
    print(repr(seconds))
