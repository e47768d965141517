"""Machine-speed yardstick for the end-to-end timings.

On a shared virtual machine the speed of a core drifts, by up to 1.6x
over minutes, and it drifts for every metric of a run at once: far more
than the change a benchmark run should resolve.  So the benchmark times a
short fixed loop, which uses no package code, about every
`INTERVAL_S` seconds between its operations.  The loop has one part of
each kind of work the package does: large numpy arrays, interpreter-bound
Python, small numpy calls and mpmath arithmetic.  A reading is the mean of
the parts' times, each divided by its time on the reference machine, so
1.0 is the reference speed and 1.2 is 20 % slower.  The median reading of
a run is its speed factor.  End-to-end times other than set-up are
reported divided by the factor and rates multiplied by it: they read as
seconds on the reference machine.  The result's ``meta`` line gives the
factor and the unscaled values.
"""

from __future__ import annotations

import statistics
import time

import mpmath
import numpy as np

#: seconds between readings, at least; a reading takes about 8 ms
INTERVAL_S = 0.2

#: median seconds of each part on the reference machine (2-vCPU x86-64
#: KVM guest at 2.0 GHz, Python 3.11, numpy 2.4, mpmath 1.3)
REFERENCE_S = {"array": 0.00163, "loop": 0.00208, "small": 0.00114,
               "mpmath": 0.00352}

_LARGE = np.random.default_rng(0).uniform(size=200_000)
_SMALL = np.random.default_rng(1).uniform(size=16)


def _array():
    for _ in range(5):
        np.exp(_LARGE).sum()


def _loop():
    s = 0
    for i in range(30_000):
        s += i * i % 7


def _small():
    for _ in range(400):
        np.exp(-1.5 * _SMALL).prod()


def _mpmath():
    with mpmath.workprec(200):
        s = mpmath.mpf(0)
        for i in range(1, 300):
            s += mpmath.exp(mpmath.mpf(1) / i)


PARTS = {"array": _array, "loop": _loop, "small": _small, "mpmath": _mpmath}


class Yardstick:
    def __init__(self):
        self.readings: list[float] = []
        self._last = -float("inf")

    def maybe_read(self):
        """Take a reading if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        ratios = []
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            ratios.append((time.perf_counter() - t0) / REFERENCE_S[name])
        self.readings.append(statistics.fmean(ratios))
        self._last = time.perf_counter()

    def factor(self) -> float:
        return statistics.median(self.readings)
