"""Machine-speed probe: scales measured times to one reference speed.

The benchmark runs on a share of a host whose speed drifts, over seconds
to minutes, by up to about 1.9x, for Python and numpy code alike.  Wall
times of the same code then differ between runs by more than any useful
bound.  So a small fixed kernel (dict updates in a Python loop and 6x6
numpy products; no switchguard code) is timed on the benchmark's own
thread: every `PERIOD_S` by an interval timer while a pass runs, and in
bursts before and after each batch of set-ups.  A time measured while
the kernel takes `k` seconds on average is reported as
`time * REFERENCE_KERNEL_S / k`: the time the same work would take on a
machine where the kernel takes `REFERENCE_KERNEL_S` (the 2-vCPU Xeon VM
this benchmark was defined on, in its fast state).  A change to
switchguard moves the scaled time as it moves the wall time; the
machine's drift moves the kernel as well and cancels.

The kernel's own time (about 2% of a pass) is subtracted from the
operations it interrupted; spans of a traced pass still contain it.
"""
from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.0006
BURST = 8  # kernels per burst around set-ups
MIN_SAMPLES = 8  # a window with fewer borrows the samples nearest to it
WARM_UP = 16

_SMALL = np.ones((6, 6))


def kernel() -> None:
    """Fixed work whose time tracks the machine's current speed."""
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(150):
        _SMALL @ _SMALL + _SMALL


class Probe:
    """Kernel timings of one run, as (start, seconds), in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        for _ in range(WARM_UP):
            kernel()

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S, between bytecodes of this thread, for the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect_left(self.starts, t0), bisect_left(self.starts, t1)

    def time_in(self, t0: float, t1: float) -> float:
        """Kernel time spent inside [t0, t1)."""
        lo, hi = self._window(t0, t1)
        return sum(self.seconds[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor from wall time in [t0, t1) to reference seconds."""
        lo, hi = self._window(t0, t1)
        if hi - lo < MIN_SAMPLES:
            middle = bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_KERNEL_S / statistics.fmean(self.seconds[lo:hi])

    def median_kernel_s(self) -> float:
        return statistics.median(self.seconds)
