"""Machine-speed calibration for the timed metrics.

The small VMs this benchmark was built on change speed by up to +-25%, and
briefly by more, over periods of several seconds, under load from outside
them: over one minute, a fixed loop took between 0.6x and 1.25x of its
median time.  Raw wall times of 20-second runs then spread by 20-30%
between runs of the same inputs, more than any bound worth having.

So a fixed kernel, which uses Python and numpy but no package code, runs
before the first job, after every job, and every PERIOD_S seconds during a
job from a timer signal in the same process.  Each job's wall time, less
the kernel runs inside it, is scaled by ``REF_S / local``, where ``local``
is the median kernel time of the samples taken during the job and the
NEAR samples on each side of it: the result is the job's time at the
reference speed.  The kernel does not depend on the package, so a faster
package still reads as faster, by the same factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REF_S = 0.0025          # median kernel time on the reference machine (README.md)
PERIOD_S = 0.25         # timer-driven samples during long jobs
NEAR = 3                # samples taken on each side of a job

_MATRIX = np.arange(1024, dtype=np.int64).reshape(32, 32)


def kernel_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and small integer numpy ops."""
    start = time.perf_counter()
    acc, seen = 0, {}
    for k in range(12000):
        acc += k * k
        seen[k & 255] = acc
    a = _MATRIX
    for _ in range(36):
        a = (a @ a + a[::-1]) % 97
    return time.perf_counter() - start


def settled_scale(count: int = 7) -> float:
    """Scale factor from a burst of kernel runs, for one-off timings."""
    return REF_S / statistics.median(kernel_seconds() for _ in range(count))


class Sampler:
    """Kernel samples (start time, seconds) between jobs and on a timer during them.

    Use as a context manager around the timed loop; it owns SIGALRM while open.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:                 # the timer fired during a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            cost = kernel_seconds()
            self.starts.append(start)
            self.costs.append(cost)
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def job_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, reference) seconds of a job that ran from t0 to t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        wall = (t1 - t0) - sum(self.costs[lo:hi])
        near = self.costs[max(0, lo - NEAR): hi + NEAR]
        return wall, wall * REF_S / statistics.median(near)
