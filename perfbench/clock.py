"""Time in reference seconds.

On a shared host the speed of a process can drift by 15-25 % over tens of
seconds (measured on a 2-core Xeon virtual machine with other tenants),
more than the regressions the benchmark must catch.  The drift slows all CPU-bound Python alike, so while
operations run, an interval timer interrupts them every ``PERIOD_S`` to
time a small fixed pure-Python kernel that uses no code of the library
(about 2 % of the run).
An operation's time is its elapsed time minus the kernel runs inside it,
scaled by REFERENCE_S / (median kernel time around it): a reported second is
the time the operation takes when the kernel runs in exactly REFERENCE_S.
Raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager

from ops import inv, reduce

REFERENCE_S = 0.0005
PERIOD_S = 0.05
# Samples this far outside an operation still describe its speed.
WINDOW_S = 0.25

_rng = random.Random(0)
_WORDS = [tuple(_rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(60)) for _ in range(24)]
_GRAPH = {v: {c: (v * 7 + c) % 97 for c in (1, -1, 2, -2)} for v in range(97)}


def _kernel() -> int:
    """Word reduction and graph search, the kind of work the library does."""
    total = 0
    for w in _WORDS:
        total += len(reduce(w + inv(w[:30])))
    for start in range(0, 97, 12):
        seen = {start}
        stack = [start]
        while stack:
            for t in _GRAPH[stack.pop()].values():
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        total += len(seen)
    return total


class SpeedClock:
    """Kernel timings (end stamp, seconds) in time order."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent in the kernel so far

    def sample(self, *_signal_args) -> None:
        """Time the kernel's second of two runs, so that what the
        interrupted operation left in the caches does not count."""
        first = time.perf_counter()
        _kernel()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples.append(end - start)
        self.stolen += end - first

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor turning a raw time measured in [start, end] into
        reference seconds."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < 3:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        window = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.median(window)
