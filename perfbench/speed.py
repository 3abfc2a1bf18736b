"""Host-speed calibration of the timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
minutes, and by tens of percent within the seconds one forward run of
many-pipes takes.  A short calibration kernel is therefore timed right
before a timed block, every TICK_S seconds inside it (from a SIGALRM
handler, between two bytecodes of the program) and right after it.  The
block's time, less the kernels run inside it, is reported as the time it
takes on a host where the kernel takes REFERENCE_S seconds.

On a noisy 2-core host, eight forward runs of one many-pipes input had an
interquartile spread of 25% of their median when calibrated only before
and after each run, and of 5% with the kernel also run inside it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

REFERENCE_S = 0.001
TICK_S = 0.1


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 200
        off = -np.ones(n - 1)
        self._matrix = sparse.diags([4.0 + rng.random(n), off, off],
                                    [0, 1, -1], format="csc")
        self._rhs = rng.random(n)
        self._rows = rng.random((16, 8))
        self.kernel_s: list[float] = []
        self._ticks: list[tuple[float, float]] = []
        self._before = self._after = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _kernel(self) -> float:
        """Interpreter loops, small NumPy operations and a small sparse LU."""
        t0 = perf_counter()
        table: dict[int, int] = {}
        for i in range(3_000):
            table[i % 101] = table.get(i % 101, 0) + i
        total = 0.0
        for i in range(60):
            total += float(np.max(np.abs(self._rows[i % 16] * 1.0001 - 0.5)))
        splu(self._matrix).solve(self._rhs)
        elapsed = perf_counter() - t0
        self.kernel_s.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        start = perf_counter()
        self._ticks.append((start, self._kernel()))

    def start(self) -> float:
        """Open a timed block; returns its start time."""
        self._ticks = []
        self._before = self._kernel()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return perf_counter()

    def stop(self):
        """Close the timed block opened by start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._after = self._kernel()

    def factor(self, t0: float, t1: float) -> float:
        """Scale from host seconds to reference seconds over [t0, t1]."""
        inside = [d for s, d in self._ticks if t0 <= s < t1]
        return REFERENCE_S / statistics.fmean([self._before, *inside,
                                               self._after])

    def seconds(self, t0: float, t1: float) -> float:
        """Calibrated duration of [t0, t1] without the kernels run in it."""
        inside = sum(d for s, d in self._ticks if t0 <= s < t1)
        return (t1 - t0 - inside) * self.factor(t0, t1)
