"""Taking the machine's speed out of the benchmark's times.

On a shared machine the CPU speed of a process swings, by up to a factor
of two, both from one few-millisecond slice to the next and in phases of
seconds to minutes.  A ``Sampler`` measures that speed while the benchmark
works: every ``INTERVAL`` seconds of wall time a timer signal interrupts
the work and runs a short, fixed pure-Python reference loop, and the loop's
time is recorded.  The samples fall evenly in time, so their mean is the
machine's mean slowness over the window.  A time is reported as its wall
time, without the samples' own time, divided by the mean sample time in
the same window and multiplied by ``REF_S``: seconds on a machine that runs
the reference loop in ``REF_S`` seconds.

The loop does the kind of work gdiff does (``Fraction`` arithmetic, list
and dict traffic), and nothing in it depends on gdiff, so a change to
gdiff cannot move it.  The garbage collector is off while it runs: a full
collection would time the size of the heap, not the machine's speed.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_S = 0.001      # nominal seconds of one reference loop
INTERVAL = 0.02    # seconds of wall time between samples

clock = time.perf_counter


def _work() -> Fraction:
    n = 5
    a = [[Fraction(i * 7 + j * 3 + 1, j + 2) for j in range(n)]
         for i in range(n)]
    acc = Fraction(0)
    for row in a:
        for c in range(n):
            acc += sum(row[k] * a[k][c] for k in range(n))
    counts = {}
    for i in range(300):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return acc + len(counts)


class Sampler:
    """Reference-loop samples taken from a SIGALRM handler.  ``mark()``
    returns a position; ``window(a, b)`` the work time, sample count and
    mean sample time between two positions.  Until ``start()`` there are
    no samples and the work time is the wall time."""

    def __init__(self, on_sample=None):
        self.count = 0
        self.total = 0.0
        self._on_sample = on_sample   # called with each sample's seconds
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        _work()
        elapsed = clock() - start
        self.total += elapsed
        self.count += 1
        if enabled:
            gc.enable()
        if self._on_sample is not None:
            self._on_sample(elapsed)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return clock(), self.count, self.total

    @staticmethod
    def window(a, b):
        """(work seconds, samples, mean sample seconds) between marks."""
        (t0, n0, s0), (t1, n1, s1) = a, b
        n, s = n1 - n0, s1 - s0
        return t1 - t0 - s, n, (s / n if n else float("nan"))


def normalized(seconds: float, mean_sample: float) -> float:
    """``seconds`` of work at the nominal reference speed."""
    return seconds / mean_sample * REF_S
