"""Machine-speed probe, speed normalisation, and summary statistics.

Machine speed on a shared host drifts in phases lasting tens of seconds, by
as much as half. A fixed stdlib-only kernel (pure-Python Fraction work, no
realoracle code) is timed between ops; every reported time is the measured
time scaled by ``REF_PROBE_S / probe``, where ``probe`` is the median of the
probe runs nearest to it. A slow phase therefore shows in the probe, not
as a regression.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 1e-3
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 9

_X = Fraction(3 ** 120, 2 ** 190 + 1)
_Y = Fraction(5 ** 90, 7 ** 70)


def _kernel():
    # Pure-Python Fraction work on medium-size integers, as in the library's
    # interval arithmetic: a kernel of big multiplications alone tracks the
    # library's slow phases poorly.
    acc = Fraction(0)
    for k in range(1, 30):
        z = (_X + Fraction(k, 3)) * _Y
        if z > acc:
            acc = z - Fraction(1, k)
    lo = Fraction(3 ** 100, 1 << 160)
    hi = lo + Fraction(1, 1 << 150)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * mid * 3 > 7:
            hi = mid
        else:
            lo = mid
    return acc, lo


def speed_probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class SpeedTrack:
    """Probe runs interleaved with the ops, and the scale factor they give."""

    def __init__(self):
        self.times = []
        self.took = []

    def probe(self) -> None:
        self.times.append(perf_counter())
        self.took.append(speed_probe())

    def factor_at(self, when: float) -> float:
        i = bisect_left(self.times, when)
        lo = max(0, min(i - PROBE_WINDOW // 2, len(self.took) - PROBE_WINDOW))
        return REF_PROBE_S / statistics.median(self.took[lo:lo + PROBE_WINDOW])

    def overall(self) -> float:
        return REF_PROBE_S / statistics.median(self.took)


def settled_probe(runs: int = 7) -> float:
    """Median probe of a few back-to-back runs, for one-off measurements."""
    return statistics.median(speed_probe() for _ in range(runs))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, p in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def within_group_slope(points) -> float:
    """Least-squares slope of y on x with one intercept per group.

    ``points`` is an iterable of (group, x, y); groups with a single point
    carry no slope information and drop out.
    """
    groups = {}
    for g, x, y in points:
        groups.setdefault(g, []).append((x, y))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else float("nan")


def loglog_slope(pairs) -> float:
    """Fitted exponent of time against digits."""
    return within_group_slope((0, math.log(d), math.log(t)) for d, t in pairs)
