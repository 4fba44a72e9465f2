"""Drift probe: a fixed pure-Python kernel that measures host speed.

On a shared two-core host the interpreter's speed moves by about
+-15% between 5-second windows, and flips between a fast and a slow
state, up to 1.7x apart, every few seconds, which swamps a 10%
regression in any wall-clock metric.  The probe times a fixed amount of interpreter work
in a short burst right before and right after every timed block (never
during one), and the block's time is scaled by how fast that work ran
around it::

    corrected = raw * NOMINAL_PROBE_US / mean(burst before, burst after)

The kernel imports nothing from ``repro`` so no change to the program
under test can change what it measures.  It mixes the operations the
compiler, analyzer and simulator spend their time on: dict and
frozenset traffic, integer arithmetic, big-int bit masks, and small
tuple, list and dict allocation.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Mean probe time on the host the benchmark was calibrated on (a
#: 2-core x86-64 container, CPython 3.11).  Only the ratio to the
#: measured mean matters; the constant fixes the scale, so corrected
#: times read as that host's times.
NOMINAL_PROBE_US = 400.0

#: Kernel calls per burst; the burst's median is kept so one call that
#: a context switch landed in does not move the run's estimate.
CALLS_PER_BURST = 3


def kernel() -> int:
    """The fixed unit of work (a few hundred microseconds).

    Only integers are hashed: ``str`` hashes are salted per process, and
    a kernel keyed by strings runs at a different speed in every process
    even on an idle host.
    """
    table: dict = {}
    rows: list = []
    mask = 0
    acc = 0
    for i in range(200):
        value = (i * 2654435761) & 0xFFFF
        table[value & 0x3FF] = table.get(value & 0x3FF, 0) + i
        mask |= 1 << (value & 1023)
        acc = (acc * 31 + value) & 0xFFFFFFFF
        rows.append((i, acc, [value], {0: value}))
    union: frozenset = frozenset()
    for k in range(100):
        union = union | frozenset(range(k % 13, k % 13 + 8))
    for i, value, cell, record in rows[::3]:
        acc ^= table.get(value & 0x3FF, i) + cell[0] % 13 + record[0]
    return acc + mask.bit_count() + len(union)


class Probe:
    """Times probe bursts and keeps every burst of the run."""

    def __init__(self):
        self.samples_us: list = []

    def burst(self) -> float:
        """Time ``CALLS_PER_BURST`` kernel calls with the GC paused;
        returns (and keeps) their median in microseconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            calls = []
            for _ in range(CALLS_PER_BURST):
                start = time.perf_counter()
                kernel()
                calls.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        sample = statistics.median(calls) * 1e6
        self.samples_us.append(sample)
        return sample

    @property
    def mean_us(self) -> float:
        return statistics.fmean(self.samples_us)

    @property
    def factor(self) -> float:
        """The run-level correction, for time measured outside any
        bracketed block (the imports)."""
        return NOMINAL_PROBE_US / self.mean_us
