"""A fixed reference kernel that measures how fast the host runs right now.

The host slows down and speeds up by tens of percent from one second to
the next, with CPU time equal to wall time, so a raw command time says
as much about the host as about refdep.  The kernel does the kind of
work refdep does (``Fraction`` arithmetic and frozenset hashing) and is
timed just before and just after every stretch of commands.  A time
measured during the stretch is reported at nominal host speed:

    normalised = raw * NOMINAL_S / (mean of the two kernel times)

NOMINAL_S is the kernel's median time over 2,163 runs on the machine the
benchmark was calibrated on (Python 3.11.7, 2 CPUs, kernel times 30-72
ms); it is fixed here so that figures from different runs share one
scale.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.054
ROUNDS = 4200


def kernel() -> int:
    seen = set()
    total = 0
    for i in range(ROUNDS):
        a = Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 2)
        b = a - Fraction(1, i % 5 + 1)
        seen.add(frozenset((b, i % 13, f"x{i % 17}")))
        total += b.denominator
    return total + len(seen)


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Splits a sequence of timed items into stretches bracketed by the
    kernel, and scales each item by its stretch's host-speed factor."""

    def __init__(self, stretch_s=0.25):
        self.stretch_s = stretch_s
        self.kernel_times = [timed_kernel()]
        self.pending = []   # raw seconds of items since the last kernel
        self.pending_s = 0.0
        self.factors = []   # one per closed stretch

    def add(self, raw_s, sink):
        """Record one item's raw time; ``sink(raw_s, factor)`` is called
        for it once its stretch closes."""
        self.pending.append((raw_s, sink))
        self.pending_s += raw_s
        if self.pending_s >= self.stretch_s:
            self.close()

    def close(self):
        if not self.pending:
            return
        after = timed_kernel()
        factor = NOMINAL_S / ((self.kernel_times[-1] + after) / 2)
        self.kernel_times.append(after)
        self.factors.append(factor)
        for raw_s, sink in self.pending:
            sink(raw_s, factor)
        self.pending, self.pending_s = [], 0.0
