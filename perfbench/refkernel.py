"""The fixed reference kernel and the time normaliser built on it.

On a shared host the same pure-Python loop runs at different speeds from
one moment to the next, so raw wall times of identical code move by tens
of percent between runs.  Every timed stretch is therefore bracketed by
this kernel, and a reported time is

    wall time * (kernel's nominal tick / kernel's measured tick)

with the measured tick averaged over the samples just before and just
after the stretch.  The kernel shares nothing with the program under
test and must never change: its nominal tick is the unit every reported
time is expressed in.
"""

from __future__ import annotations

import time

# Duration of one tick on the reference machine when it runs at full
# speed (2-core Intel Xeon host; see README).  A reported second is a
# second of that machine at that speed.
NOMINAL_TICK_S = 0.000135

# Kernel time spent per second of timed work, and the shortest stretch
# between two kernel samples.
KERNEL_SHARE = 0.1
MIN_STRETCH_S = 0.05


def tick() -> int:
    """One fixed unit of pure-Python work: dict updates under tuple keys
    and modular integer arithmetic, the mix of a sparse polynomial loop."""
    table: dict = {}
    acc = 1
    for i in range(400):
        key = (i % 11, i % 7, i % 5)
        acc = (acc * 31 + i) % 65521
        table[key] = (table.get(key, 0) + acc) % 65521
    return len(table) + acc


class Sample:
    """Kernel ticks run back to back and the time they took."""

    __slots__ = ("ticks", "seconds")

    def __init__(self, ticks: int, seconds: float):
        self.ticks = ticks
        self.seconds = seconds


def sample(ticks: int) -> Sample:
    start = time.perf_counter()
    for _ in range(ticks):
        tick()
    return Sample(ticks, time.perf_counter() - start)


def ticks_for(stretch_s: float) -> int:
    """Kernel length that keeps the kernel near KERNEL_SHARE of the work."""
    return max(4, round(KERNEL_SHARE * stretch_s / NOMINAL_TICK_S))


def factor(before: Sample, after: Sample) -> float:
    """Nominal over measured tick, pooled over the two bracketing samples."""
    measured = (before.seconds + after.seconds) / (before.ticks + after.ticks)
    return NOMINAL_TICK_S / measured


class Stretches:
    """Splits a sequence of timed pieces into stretches of at least
    MIN_STRETCH_S, closes each with a kernel sample, and hands back every
    piece's wall time scaled by its stretch's factor.

        s = Stretches()
        for job in jobs:
            t0 = clock(); run(job); s.add(clock() - t0)
        normalised = s.close()
    """

    def __init__(self, sampler=sample):
        self._sampler = sampler
        self._before = sampler(ticks_for(MIN_STRETCH_S))
        self._pending: list = []
        self._wall = 0.0
        self.normalised: list = []
        self.raw: list = []
        self.factors: list = []
        self.kernel = Sample(0, 0.0)  # every sample taken, pooled
        self._pool(self._before)

    def _pool(self, s: Sample) -> None:
        self.kernel = Sample(self.kernel.ticks + s.ticks,
                             self.kernel.seconds + s.seconds)

    def add(self, wall_s: float) -> None:
        self._pending.append(wall_s)
        self._wall += wall_s
        if self._wall >= MIN_STRETCH_S:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        after = self._sampler(ticks_for(self._wall))
        self._pool(after)
        k = factor(self._before, after)
        self.normalised.extend(w * k for w in self._pending)
        self.raw.extend(self._pending)
        self.factors.extend(k for _ in self._pending)
        self._before = after
        self._pending = []
        self._wall = 0.0

    def close(self) -> list:
        self._flush()
        return self.normalised
