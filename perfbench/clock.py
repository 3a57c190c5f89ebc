"""Wall time scaled for host contention.

On a shared host, other tenants can slow this process by up to 2x for
seconds at a time. The guest kernel does not report that as steal time,
so this process's CPU time grows with its wall time and cannot separate
the two; a benchmark run measured only by the wall clock then varies by
tens of percent from one run to the next.

A `Meter` times a fixed reference loop (about 1 ms) after every measured
interval. The interval's wall time is multiplied by REF_S divided by the
mean of the loop times just before and just after it. The result is the
interval's time on a machine where the reference loop takes REF_S: the
loop's uncontended time on a 2-vCPU Intel Xeon with Python 3.11 and
numpy 2.4, so scaled times read as that machine's quiet wall times.
Raw wall times are reported next to them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.0008
_SORT_INPUT = np.random.default_rng(0).random(20_000)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    start = perf_counter()
    x = 0
    for i in range(20_000):
        x += i
    np.sort(_SORT_INPUT)
    return perf_counter() - start


class Meter:
    def __init__(self):
        self.before = reference_loop()
        self.factors: list = []

    def time(self, fn, *args):
        """Run fn(*args); returns (result, wall seconds, scaled seconds)."""
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = perf_counter() - start
            # one loop per 0.1 s of interval, up to 9, so a long interval
            # is not scaled by one noisy 1 ms sample
            after = statistics.median(
                reference_loop() for _ in range(max(1, min(9, int(wall / 0.1)))))
            factor = 2.0 * REF_S / (self.before + after)
            self.before = after
        self.factors.append(factor)
        return out, wall, wall * factor

    def speed(self) -> float:
        """Median scale factor: below 1 when the host was slower than the reference."""
        return statistics.median(self.factors) if self.factors else 1.0
