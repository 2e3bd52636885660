"""Machine-speed probe interleaved with the workload.

On a shared VM the same code runs up to about 1.7x slower for tens of
seconds at a time, and CPU time slows with it, so raw wall times of runs a
minute apart are not comparable. While the workload runs, a SIGALRM timer
interrupts it every INTERVAL_S between bytecodes and times a fixed piece of
work with the mix of the engine's inner loop and CSV writer: small
matmuls, an einsum, float formatting, normal draws and a Python loop. Of
the mixes tried, this one tracked the workloads' own slowdowns best. The
probe's own time is subtracted from every interval, and the remainder is
scaled by REFERENCE_S / (mean probe time): seconds at the speed where the
probe takes REFERENCE_S. Threads or
processes the program starts would compete with the probe, so the
correction assumes the program runs in one thread of Python.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 180e-6  # probe time on an uncontended 2-core Xeon VM, numpy 2.4.6


class SpeedProbe:
    """Context manager that samples the probe time while its block runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((10, 10))
        self._x = rng.standard_normal((20, 10, 8))
        self._w = np.full((8, 8), 1.0 / 8.0)
        self._floats = rng.standard_normal(40).tolist()
        self._rng = rng
        self.samples: list[float] = []
        self.total_s = 0.0
        self._previous = None

    def _work(self) -> None:
        x = self._x
        for _ in range(6):
            g = np.matmul(self._a, x) - 0.5
            x = np.matmul(x - 0.01 * g, self._w)
            np.einsum("sij,sij->s", g, g)
        ",".join(f"{v!r}" for v in self._floats)
        self._rng.normal(0.0, 1.0, size=2000)
        s = 0
        for i in range(300):
            s += i * i

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self._work()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.total_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Scale from seconds measured here to seconds at the reference speed."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / (sum(self.samples) / len(self.samples))

    def timed(self, fn, *args) -> float:
        """Wall time of fn(*args) with the probe's own time taken out."""
        before = self.total_s
        start = perf_counter()
        fn(*args)
        return perf_counter() - start - (self.total_s - before)
