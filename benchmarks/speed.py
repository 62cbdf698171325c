"""A speed probe: a fixed kernel timed between ops, to scale op times.

On the 2-vCPU x86-64 virtual machine this benchmark was written on, the
same code runs up to 1.5 times slower for tens of seconds at a time, often
for a whole run, and the process's CPU time grows with its wall time, so the
loss cannot be told apart from the program's own work.  The probe measures
that speed: between ops it times a fixed pure-Python kernel (exact integer
and fraction elimination, the kind of work ``exactnum`` does; it does not
touch ``logcy3``) for about 20 ms after one untimed run, at most every
``every`` seconds.  An op's *scaled* time is its wall time times
``NOMINAL_S`` over the mean of the probes just before and just after it:
the time it would take at the machine's nominal speed.  In the fast phases the factor is about 1.  (A
median over a wider window of probes gave steadier factors but missed
slow bursts of about a second, which then made the tail percentiles of
the validation times vary from run to run.)
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# A sample's time in the fast phases of a 2-vCPU x86-64 virtual machine
# (Python 3.11); any fixed value would do, this one keeps scaled times near
# wall times there.
NOMINAL_S = 0.017
SAMPLE_RUNS = 4
_SIZE = 7
_MATRICES = [
    [[Fraction((31 * i + 17 * j + 7 * k) % 19 - 9) for j in range(_SIZE)] for i in range(_SIZE)]
    for k in range(3)
]


def kernel():
    """Gauss-Jordan elimination over the rationals, plus an integer loop."""
    for matrix in _MATRICES:
        rows = [row[:] for row in matrix]
        for c in range(_SIZE):
            pivot = next((r for r in range(c, _SIZE) if rows[r][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(_SIZE):
                if r != c and rows[r][c]:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Probe:
    """Probe samples along the run's timeline: (end time, seconds)."""

    def __init__(self, every=0.25):
        self.every = every
        self.samples = []

    def tick(self, force=False):
        """Take a sample, unless one was taken less than ``every`` ago."""
        if not force and self.samples and perf_counter() - self.samples[-1][0] < self.every:
            return
        # The collector is off while sampling, so that objects the program
        # keeps alive cannot slow the kernel and so shrink scaled times.
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()  # untimed: the first run after a pause or a subprocess is slow
            t = perf_counter()
            for _ in range(SAMPLE_RUNS):
                kernel()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((end, end - t))

    def factor(self, start, end):
        """NOMINAL_S over the mean of the last sample before ``start`` and
        the first after ``end``."""
        times = [t for t, _ in self.samples]
        around = (bisect_right(times, start) - 1, bisect_left(times, end))
        seconds = [self.samples[k][1] for k in around if 0 <= k < len(self.samples)]
        return NOMINAL_S / statistics.mean(seconds)
