"""Executable axiom suite for oracles.

Nine falsification-oriented checks: the five defining properties
(consistency, existence, closed, rooted, interval separation) and the two
equivalent replacement pairs (two point separation with disjointness;
narrowing with intersection). Checks sample seeded pseudo-random rational
intervals on a grid around the oracle's own refined interval, rounded
outward onto the 2^-3 grid, so boundary-adjacent queries are well
represented while a report's cost stays bounded by samples times budget,
not by how far earlier queries refined the oracle. Each property is a
generator of trial outcomes, and one driver, ``_sampled``, runs and judges
them all.

A ``FALSIFIED`` verdict always carries a replayable counterexample (the
intervals queried, the answers observed, and the budget). ``PASSED`` means
no counterexample surfaced in the sampled trials; it is never a proof.
``INCONCLUSIVE`` means exhausted answers blocked every trial.
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .intervals import RInterval, _interval_raw, _le, _raw_fraction, round_out
from .oracle import Budget, Oracle, QueryResult
from .record import Record

PROPERTY_NAMES = (
    "Consistency",
    "Existence",
    "Closed",
    "Rooted",
    "IntervalSeparation",
    "TwoPointSeparation",
    "Disjointness",
    "Narrowing",
    "Intersection",
)


class Verdict(Enum):
    PASSED = "Passed"
    FALSIFIED = "Falsified"
    INCONCLUSIVE = "Inconclusive"


class Counterexample(Record):
    """Everything needed to replay a violation."""

    note: str
    queries: Tuple[Tuple[RInterval, QueryResult], ...]
    budget: Budget

    def __str__(self) -> str:
        shown = " ".join(f"decide({q})={r.value}" for q, r in self.queries)
        return f"{self.note}: {shown} (budget={self.budget.steps})"


class AxiomReport(Record):
    property_name: str
    verdict: Verdict
    samples_run: int
    counterexample: Optional[Counterexample] = None

    def __str__(self) -> str:
        line = f"{self.property_name} {self.verdict.value} {self.samples_run}"
        if self.counterexample is not None:
            line += f" [{self.counterexample}]"
        return line


def replay(oracle: Oracle, counterexample: Counterexample) -> Tuple[QueryResult, ...]:
    """Re-run the recorded queries; definitive answers must reproduce."""
    return tuple(
        oracle.decide(interval, counterexample.budget)
        for interval, _ in counterexample.queries
    )


def _grid_index(grid: Sequence[Fraction], point: Fraction) -> int:
    """``bisect_left(grid, point)``: the first index whose value is not below
    ``point``, by ``_le``, without the type dispatch of ``Fraction.__lt__``."""
    lo, hi = 0, len(grid)
    while lo < hi:
        mid = (lo + hi) // 2
        if _le(point, grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _Sampler:
    """Seeded grid of rationals around the oracle's refined interval.

    The base is ``refine(1/8)`` rounded outward onto the 2^-3 grid, so an
    oracle that earlier queries refined far deeper samples on the same grid
    as a fresh one, and the widths the checks ask for scale with the base,
    not with the cached enclosure.

    Sampling works on grid indices; the grid is sorted and duplicate-free,
    so index order is value order and interval construction never needs a
    rational comparison.
    """

    def __init__(self, oracle: Oracle, seed: int, budget: Budget):
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.budget = budget
        base = oracle.refine(Fraction(1, 8), budget)
        if base is None:
            base = oracle.refine(Fraction(4), budget)
        if base is None:
            base = next(oracle.refiner(), None)
        if base is None:
            base = RInterval(Fraction(-1), Fraction(1))
        # Still a superset of a Yes interval, so yes_indices stays sound.
        base = round_out(base, 3)
        self.base = base
        span = base.width if base.width > 1 else Fraction(1)
        lo = base.lo - 2 * span
        hi = base.hi + 2 * span
        # lo + (hi - lo) * i / cells is (a + i * step) / den in integers.
        cells = 96
        den = math.lcm(lo.denominator, hi.denominator) * cells
        a = lo.numerator * (den // lo.denominator)
        step = (hi.numerator * (den // hi.denominator) - a) // cells
        grid = []
        for num in range(a, a + step * cells + 1, step):
            g = math.gcd(num, den)
            grid.append(_raw_fraction(num // g, den // g))
        for point in (base.lo, base.hi, oracle.root):
            if point is not None:
                k = _grid_index(grid, point)
                if k == len(grid) or not _le(grid[k], point):
                    grid.insert(k, point)
        self.grid: Sequence[Fraction] = grid
        self.count = len(self.grid)
        self.base_lo_idx = _grid_index(grid, base.lo)
        self.base_hi_idx = _grid_index(grid, base.hi)
        self.region = _interval_raw(self.grid[0], self.grid[-1])

    def iv(self, i: int, j: int) -> RInterval:
        # Valid because the grid is strictly increasing and i <= j.
        return _interval_raw(self.grid[i], self.grid[j])

    def decide(self, interval: RInterval) -> QueryResult:
        return self.oracle.decide(interval, self.budget)

    def cex(self, note: str, *queries: Tuple[RInterval, QueryResult]) -> Counterexample:
        return Counterexample(note, queries, self.budget)

    def index(self) -> int:
        return self.rng.randrange(self.count)

    def span_indices(self) -> Tuple[int, int]:
        i = self.rng.randrange(self.count)
        j = self.rng.randrange(self.count)
        return (i, j) if i <= j else (j, i)

    def yes_indices(self) -> Tuple[int, int]:
        # Supersets of the refined base are Yes for any consistent rule.
        return (
            self.rng.randrange(0, self.base_lo_idx + 1),
            self.rng.randrange(self.base_hi_idx, self.count),
        )


# A trial yields None when it decided nothing (an Exhausted answer, or a
# draw the property does not apply to), True when the property held, and a
# Counterexample when it failed. ``held or s.cex(...)`` gives the last two.
_Trials = Iterator[Union[None, bool, Counterexample]]


def _sampled(name: str, trials: _Trials, samples: int) -> AxiomReport:
    """Run up to ``samples`` trials of one property and judge them: Falsified
    at the first counterexample, Inconclusive when trials ran and none was
    decided, else Passed. Each report gives the trials that ran: up to the
    counterexample, or all a property had (Closed has none without a root)."""
    ran = decided = 0
    for outcome in itertools.islice(trials, samples):
        ran += 1
        if outcome is True:
            decided += 1
        elif outcome is not None:
            return AxiomReport(name, Verdict.FALSIFIED, ran, outcome)
    verdict = Verdict.INCONCLUSIVE if ran and not decided else Verdict.PASSED
    return AxiomReport(name, verdict, ran, None)


def _consistency(s: _Sampler) -> _Trials:
    while True:
        i, j = s.span_indices()
        inner = s.iv(i, j)
        if s.decide(inner) is not QueryResult.YES:
            yield None
            continue
        outer = s.iv(s.rng.randrange(0, i + 1), s.rng.randrange(j, s.count))
        answer = s.decide(outer)
        yield None if answer is QueryResult.EXHAUSTED else (
            answer is not QueryResult.NO
            or s.cex("superset of a Yes interval decided No", (inner, QueryResult.YES), (outer, answer))
        )


def _existence(s: _Sampler) -> _Trials:
    answer = s.decide(s.region)
    yield None if answer is QueryResult.EXHAUSTED else (
        answer is QueryResult.YES
        or s.cex("region around the refined interval decided No", (s.region, answer))
    )


def _closed(s: _Sampler) -> _Trials:
    root = s.oracle.root
    if root is not None:
        singleton = RInterval(root, root)
        answer = s.decide(singleton)
        yield None if answer is QueryResult.EXHAUSTED else (
            answer is QueryResult.YES or s.cex("root singleton decided No", (singleton, answer))
        )


def _rooted(s: _Sampler) -> _Trials:
    root = s.oracle.root
    seen: List[Fraction] = [] if root is None else [root]
    while True:
        k = s.index()
        singleton = s.iv(k, k)
        answer = s.decide(singleton)
        if answer is QueryResult.EXHAUSTED:
            yield None
        elif answer is QueryResult.YES and singleton.lo not in seen:
            seen.append(singleton.lo)
            yield len(seen) < 2 or s.cex(
                "two distinct Yes singletons",
                (RInterval(seen[0], seen[0]), QueryResult.YES),
                (singleton, QueryResult.YES),
            )
        else:
            yield True


def _separation(s: _Sampler) -> _Trials:
    while True:
        i, j = s.yes_indices()
        if j - i < 2 or s.decide(s.iv(i, j)) is not QueryResult.YES:
            yield None
            continue
        k = s.rng.randrange(i + 1, j)
        pieces = (s.iv(i, k), s.iv(k, k), s.iv(k, j))
        answers = tuple(s.decide(p) for p in pieces)
        if QueryResult.EXHAUSTED in answers:
            yield None
            continue
        yes_count = answers.count(QueryResult.YES)
        yield yes_count == (3 if answers[1] is QueryResult.YES else 1) or s.cex(
            f"split of a Yes interval has {yes_count} Yes pieces", *zip(pieces, answers)
        )


def _two_point(s: _Sampler) -> _Trials:
    while True:
        k1, k2 = s.index(), s.index()
        if k1 == k2:
            yield None
            continue
        c1, c2 = s.grid[k1], s.grid[k2]
        root = s.oracle.root
        if root is not None:
            witness: Optional[RInterval] = RInterval(root, root)
        else:
            witness = s.oracle.refine(abs(c2 - c1) / 2, s.budget)
        yield None if witness is None else (
            not (witness.contains(c1) and witness.contains(c2))
            or s.cex(f"every found Yes interval holds both {c1} and {c2}", (witness, QueryResult.YES))
        )


def _disjointness(s: _Sampler) -> _Trials:
    while True:
        a, b, c, d = sorted(s.rng.randrange(s.count) for _ in range(4))
        if b >= c:
            yield None
            continue
        first, second = s.iv(a, b), s.iv(c, d)
        a1 = s.decide(first)
        if a1 is not QueryResult.YES:
            yield None if a1 is QueryResult.EXHAUSTED else True
            continue
        a2 = s.decide(second)
        yield None if a2 is QueryResult.EXHAUSTED else (
            a2 is not QueryResult.YES or s.cex("disjoint intervals both decided Yes", (first, a1), (second, a2))
        )


def _narrowing(s: _Sampler) -> _Trials:
    base = s.base.width or Fraction(1)
    while True:
        length = base / (1 << s.rng.randrange(1, 16))
        got = s.oracle.refine(length, s.budget)
        yield None if got is None else (
            got.width <= length
            or s.cex(f"refine produced width {got.width} above requested {length}", (got, QueryResult.YES))
        )


def _intersection(s: _Sampler) -> _Trials:
    yes_seen: List[RInterval] = []
    running: Optional[RInterval] = None
    while True:
        i, j = s.span_indices()
        candidate = s.iv(i, j)
        answer = s.decide(candidate)
        if answer is not QueryResult.YES:
            yield None if answer is QueryResult.EXHAUSTED else True
            continue
        yes_seen.append(candidate)
        running = candidate if running is None else running.intersection(candidate)
        if running is not None:
            yield True
            continue
        clash = next(iv for iv in yes_seen if not iv.intersects(candidate))
        yield s.cex("two Yes intervals are disjoint", (clash, QueryResult.YES), (candidate, QueryResult.YES))


def check_axioms(
    oracle: Oracle, sampler_seed: int, samples: int, budget: Budget
) -> List[AxiomReport]:
    """Run all nine property checks; deterministic for a given seed.

    Trials sample around the oracle's refined interval rounded onto the
    2^-3 grid, and each trial asks a few questions capped by ``budget``, so
    a call's cost is bounded by ``samples`` times ``budget``, not by how far
    earlier queries refined the oracle."""
    if samples < 1:
        raise ValueError("need at least one sample")
    s = _Sampler(oracle, sampler_seed, budget)
    # In PROPERTY_NAMES order. All properties draw from one seeded stream,
    # so each runs only after the one before it has finished drawing.
    trials = (
        (_consistency, samples), (_existence, 1), (_closed, 1),
        (_rooted, samples), (_separation, samples), (_two_point, samples),
        (_disjointness, samples), (_narrowing, samples), (_intersection, samples),
    )
    return [_sampled(name, trial(s), n) for name, (trial, n) in zip(PROPERTY_NAMES, trials, strict=True)]


def format_reports(reports: Sequence[AxiomReport]) -> str:
    return "\n".join(str(r) for r in reports)
