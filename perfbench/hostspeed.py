"""The shared host's speed, read from a fixed reference kernel.

On a shared host (a VM given a few vCPUs of a machine that other
tenants load too), pure-Python code slows by up to 1.7x under their
load, in stretches from a second to over half a minute, and process CPU
time slows as much as wall time, so neither clock shows the program's
own cost.  The figures below are from a 2-vCPU Intel Xeon VM.  The kernel below is a few milliseconds of the same kind of work
as the library's (dict-of-monomials products with tuple keys, rational
and modular coefficients), written here and independent of jetclosure,
so no change to the library moves it.  Timed between cases through a
run, it reads how fast the host was while the cases ran; the benchmark
reports each run of a case scaled by ``NOMINAL_S`` over the mean sample
taken from WINDOW_S before the run to WINDOW_S after it ("ms at the
nominal host speed").

Over six 36-second windows of certify-mix cases alternated with the
kernel, the library's speed ranged over 0.85-1.36 of its median and the
kernel's over 0.84-1.42, but their ratio only over 0.965-1.046.  Over
six to eight 36-second runs of each workload (seeds 11-18), the four
timing metrics spread by 7-22% (IQR over median) raw, by up to 13%
scaled by the mean sample of the whole run, and by at most 6.7% scaled
by the samples within 3 s of each run of a case.  A window much shorter
than that judges a 6-second case by one sample; a much longer one
misses the host's swings.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REPEATS = 3  # kernel calls per sample: 8-16 ms on a 2-vCPU Xeon VM
NOMINAL_S = 0.010  # seconds per sample on the host at a quiet moment; sets the scale only
SPACING_S = 0.05  # least time from one sample to the next
WINDOW_S = 3.0  # a run is judged by the samples this close to it


def kernel() -> int:
    p = {(i % 7, i % 5, i % 3): Fraction(i + 1, 3) for i in range(60)}
    q = {(i % 4, i % 6, 0): (i * 7919) % 32003 for i in range(40)}
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[m] = out.get(m, 0) + ca * cb
    return len(out)


def sample() -> float:
    """Seconds for REPEATS kernel calls, now."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return time.perf_counter() - t0


class Sampler:
    """Samples through the timed loop: one at its ``start``, then at most
    one after each case, and none sooner than SPACING_S after the last,
    so that short cases are not slowed down by many samples."""

    def __init__(self):
        self.times = []
        self.samples = []
        self._take()
        self.start = self.last

    def _take(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(sample())
        self.last = time.perf_counter()

    def after_case(self) -> None:
        if time.perf_counter() - self.last >= SPACING_S:
            self._take()

    def scale(self, t0: float, t1: float) -> float:
        """The factor to the nominal host speed for a run from ``t0`` to
        ``t1``: NOMINAL_S over the mean sample begun from WINDOW_S before
        ``t0`` to WINDOW_S after ``t1``, or over the nearest sample."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi <= lo:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.samples[lo:hi]
        return NOMINAL_S * len(window) / sum(window)
