"""Machine-speed probe that the benchmark's reported times are scaled by.

The benchmark shares a small machine with other work, and the speed at which
the same Python code runs there drifts by tens of percent over seconds and
minutes.  While a run measures, ``SIGALRM`` fires every ``PERIOD_S`` and the
handler times a fixed kernel of ``Fraction`` arithmetic, the kind of work the
package spends its time on.  A reported time is the measured time, minus the
kernels that ran inside it, times ``REFERENCE_S`` over the mean kernel time
in a window around it: the time the work would have taken at the reference
speed, at which one kernel takes ``REFERENCE_S``.  The report prints the raw
times next to the scaled ones.

A request that runs worker processes keeps the cores busy, and a probe
inside it would take a core from a worker; around such a request the probe
is paused and runs ``EDGE_PROBES`` kernels just before and just after it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
KERNEL_TERMS = 250
REFERENCE_S = 0.002
WINDOW_S = 0.25
EDGE_PROBES = 4


def kernel() -> Fraction:
    total = Fraction(0)
    for k in range(1, KERNEL_TERMS):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return total


class Speedometer:
    """Context manager that probes the machine's speed in the background."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._probing = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No probes inside the block; ``EDGE_PROBES`` just before and just after."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(EDGE_PROBES):
            self._probe(signal.SIGALRM, None)
        try:
            yield
        finally:
            for _ in range(EDGE_PROBES):
                self._probe(signal.SIGALRM, None)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _probe(self, signum, frame) -> None:
        if self._probing:  # a slow kernel outlived the period
            return
        self._probing = True
        try:
            t0 = perf_counter()
            kernel()
            self.durations.append(perf_counter() - t0)
            self.starts.append(t0)
        finally:
            self._probing = False

    def probe_time(self, start: float, end: float) -> float:
        """Time spent in kernels that started inside ``[start, end)``."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over the mean kernel time around ``[start, end)``."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_left(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return REFERENCE_S / statistics.fmean(window)
