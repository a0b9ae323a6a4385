"""Speed scaling: a fixed pure-Python reference loop sampled all through a run.

The shared machine this benchmark was tuned on runs its CPU at one of two
speeds about 1.5x apart, switches several times a second, and the share of
slow time drifts from minute to minute, so raw times of identical work moved
by 20-35% between runs. Each run samples the reference loop between its
operations, in the client and in every worker, each sample stamped with the
time.monotonic() of its middle, and reports every time at reference speed:

    reported = measured * NOMINAL_S / mean(samples near the measured interval)

The samples near an interval are those within WINDOW_S of it, or within its
own length where that is longer, and at least the last one before it and
the first one after it.  The speed persists for about a tenth of a second,
so a nearby sample says more than the run's mean: on identical 25 ms ring
builds (one 40 s run, while another benchmark run shared the machine), the
spread of the times fell from 0.21 with the run's mean to 0.09 with the
samples within 0.1 s.  The client pins the run to one CPU, so that the
samples measure the CPU that every process of the run uses.

The reference runs no package code, so a change to the package moves the
reported times exactly as it moves the measured ones. The measured times and
the run's mean scale factor are printed and kept in the results file.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# A typical reference time on the machine the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11.7), so reported times stay near measured.
NOMINAL_S = 0.0045
WINDOW_S = 0.1


def sample() -> list[float]:
    """Run the reference loop once; return [middle, wall time in seconds]."""
    t0 = time.monotonic()
    wall = reference()
    return [t0 + wall / 2, wall]


def reference() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    counts: dict[int, int] = {}
    for i in range(6_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    frac = Fraction(0)
    for i in range(1, 400):
        frac += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Sampler:
    """Takes a reference sample after every `every_s` seconds of measured work."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.owed = 0.0
        self.samples: list[list[float]] = [sample()]

    def after(self, worked_s: float) -> None:
        self.owed += worked_s
        if self.owed >= self.every_s:
            self.owed = 0.0
            self.samples.append(sample())


class Speed:
    """The speed factors of one run, from all of its samples.  Samples over
    twice the median are left out: those met a preemption, not a slower CPU."""

    def __init__(self, samples: list[list[float]]):
        cut = 2 * statistics.median(w for _, w in samples)
        kept = sorted((t, w) for t, w in samples if w <= cut)
        self.times = [t for t, _ in kept]
        self.walls = [w for _, w in kept]
        self.mean = NOMINAL_S / statistics.fmean(self.walls)

    def at(self, t0: float, t1: float) -> float:
        """The factor for the interval [t0, t1]: NOMINAL_S over the mean of
        the samples near it.  No samples fall inside one operation, so an
        interval longer than WINDOW_S takes those within its own length of
        it: a long interval meets many speed changes, and its two nearest
        samples alone would add their own noise to it."""
        reach = max(WINDOW_S, t1 - t0)
        before = bisect.bisect_left(self.times, t0)
        after = bisect.bisect_right(self.times, t1)
        lo = min(bisect.bisect_left(self.times, t0 - reach), max(before - 1, 0))
        hi = max(bisect.bisect_right(self.times, t1 + reach), min(after + 1, len(self.times)))
        return NOMINAL_S / statistics.fmean(self.walls[lo:hi])
