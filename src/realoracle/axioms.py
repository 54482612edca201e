"""Executable axiom suite for oracles.

Nine falsification-oriented checks: the five defining properties
(consistency, existence, closed, rooted, interval separation) and the two
equivalent replacement pairs (two point separation with disjointness;
narrowing with intersection). Checks sample seeded pseudo-random rational
intervals on a grid centred on the oracle's own refined interval, so
boundary-adjacent queries are well represented.

A ``FALSIFIED`` verdict always carries a replayable counterexample (the
intervals queried, the answers observed, and the budget). ``PASSED`` means
no counterexample surfaced in the sampled trials; it is never a proof.
``INCONCLUSIVE`` means exhausted answers blocked every trial.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .intervals import RInterval, _interval_raw, _raw_fraction
from .oracle import Budget, Oracle, QueryResult

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


@dataclass(frozen=True)
class Counterexample:
    """Everything needed to replay a violation."""

    note: str
    queries: Tuple[Tuple[RInterval, QueryResult], ...]
    budget: Budget

    def __str__(self) -> str:
        shown = " ".join(f"decide({q})={r.value}" for q, r in self.queries)
        return f"{self.note}: {shown} (budget={self.budget.steps})"


@dataclass(frozen=True)
class AxiomReport:
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


class _Sampler:
    """Seeded grid of rationals around the oracle's first refined interval.

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
                k = bisect_left(grid, point)
                if k == len(grid) or grid[k] != point:
                    grid.insert(k, point)
        self.grid: Sequence[Fraction] = grid
        self.count = len(self.grid)
        self.base_lo_idx = bisect_left(self.grid, base.lo)
        self.base_hi_idx = bisect_left(self.grid, base.hi)
        self.region = _interval_raw(self.grid[0], self.grid[-1])

    def iv(self, i: int, j: int) -> RInterval:
        # Valid because the grid is strictly increasing and i <= j.
        return _interval_raw(self.grid[i], self.grid[j])

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


_CheckFn = Callable[[_Sampler, int], AxiomReport]


def _report(
    name: str,
    samples: int,
    decided: int,
    counterexample: Optional[Counterexample],
) -> AxiomReport:
    if counterexample is not None:
        return AxiomReport(name, Verdict.FALSIFIED, samples, counterexample)
    if decided == 0 and samples > 0:
        return AxiomReport(name, Verdict.INCONCLUSIVE, samples)
    return AxiomReport(name, Verdict.PASSED, samples)


def _check_consistency(s: _Sampler, samples: int) -> AxiomReport:
    decide = s.oracle.decide
    decided = 0
    for _ in range(samples):
        i, j = s.span_indices()
        inner = s.iv(i, j)
        if decide(inner, s.budget) is not QueryResult.YES:
            continue
        outer = s.iv(s.rng.randrange(0, i + 1), s.rng.randrange(j, s.count))
        answer = decide(outer, s.budget)
        if answer is QueryResult.EXHAUSTED:
            continue
        decided += 1
        if answer is QueryResult.NO:
            cex = Counterexample(
                "superset of a Yes interval decided No",
                ((inner, QueryResult.YES), (outer, QueryResult.NO)),
                s.budget,
            )
            return _report("Consistency", samples, decided, cex)
    return _report("Consistency", samples, decided, None)


def _check_existence(s: _Sampler, samples: int) -> AxiomReport:
    answer = s.oracle.decide(s.region, s.budget)
    if answer is QueryResult.YES:
        return AxiomReport("Existence", Verdict.PASSED, 1)
    if answer is QueryResult.NO:
        cex = Counterexample(
            "region around the refined interval decided No",
            ((s.region, QueryResult.NO),),
            s.budget,
        )
        return AxiomReport("Existence", Verdict.FALSIFIED, 1, cex)
    return AxiomReport("Existence", Verdict.INCONCLUSIVE, 1)


def _check_closed(s: _Sampler, samples: int) -> AxiomReport:
    root = s.oracle.root
    if root is None:
        return AxiomReport("Closed", Verdict.PASSED, 0)
    singleton = RInterval(root, root)
    answer = s.oracle.decide(singleton, s.budget)
    if answer is QueryResult.YES:
        return AxiomReport("Closed", Verdict.PASSED, 1)
    verdict = Verdict.FALSIFIED if answer is QueryResult.NO else Verdict.INCONCLUSIVE
    cex = None
    if answer is QueryResult.NO:
        cex = Counterexample(
            "root singleton decided No", ((singleton, answer),), s.budget
        )
    return AxiomReport("Closed", verdict, 1, cex)


def _check_rooted(s: _Sampler, samples: int) -> AxiomReport:
    decide = s.oracle.decide
    seen: List[Fraction] = []
    root = s.oracle.root
    if root is not None:
        seen.append(root)
    decided = 0
    for _ in range(samples):
        k = s.index()
        singleton = s.iv(k, k)
        answer = decide(singleton, s.budget)
        if answer is QueryResult.EXHAUSTED:
            continue
        decided += 1
        if answer is QueryResult.YES and singleton.lo not in seen:
            seen.append(singleton.lo)
            if len(seen) >= 2:
                first = RInterval(seen[0], seen[0])
                cex = Counterexample(
                    "two distinct Yes singletons",
                    ((first, QueryResult.YES), (singleton, QueryResult.YES)),
                    s.budget,
                )
                return _report("Rooted", samples, decided, cex)
    return _report("Rooted", samples, decided, None)


def _check_separation(s: _Sampler, samples: int) -> AxiomReport:
    decide = s.oracle.decide
    decided = 0
    for _ in range(samples):
        i, j = s.yes_indices()
        if j - i < 2:
            continue
        whole = s.iv(i, j)
        if decide(whole, s.budget) is not QueryResult.YES:
            continue
        k = s.rng.randrange(i + 1, j)
        pieces = (s.iv(i, k), s.iv(k, k), s.iv(k, j))
        answers = tuple(decide(p, s.budget) for p in pieces)
        if QueryResult.EXHAUSTED in answers:
            continue
        decided += 1
        yes_count = sum(1 for a in answers if a is QueryResult.YES)
        singleton_yes = answers[1] is QueryResult.YES
        ok = yes_count == 3 if singleton_yes else yes_count == 1
        if not ok:
            cex = Counterexample(
                f"split of a Yes interval has {yes_count} Yes pieces",
                tuple(zip(pieces, answers)),
                s.budget,
            )
            return _report("IntervalSeparation", samples, decided, cex)
    return _report("IntervalSeparation", samples, decided, None)


def _check_two_point(s: _Sampler, samples: int) -> AxiomReport:
    decided = 0
    for _ in range(samples):
        k1, k2 = s.index(), s.index()
        if k1 == k2:
            continue
        c1, c2 = s.grid[k1], s.grid[k2]
        root = s.oracle.root
        if root is not None:
            witness: Optional[RInterval] = RInterval(root, root)
        else:
            gap = abs(c2 - c1)
            witness = s.oracle.refine(gap / 2, s.budget)
        if witness is None:
            continue
        decided += 1
        if witness.contains(c1) and witness.contains(c2):
            cex = Counterexample(
                f"every found Yes interval holds both {c1} and {c2}",
                ((witness, QueryResult.YES),),
                s.budget,
            )
            return _report("TwoPointSeparation", samples, decided, cex)
    return _report("TwoPointSeparation", samples, decided, None)


def _check_disjointness(s: _Sampler, samples: int) -> AxiomReport:
    decide = s.oracle.decide
    decided = 0
    for _ in range(samples):
        picks = sorted(s.rng.randrange(s.count) for _ in range(4))
        a, b, c, d = picks
        if b >= c:
            continue
        first = s.iv(a, b)
        second = s.iv(c, d)
        a1 = decide(first, s.budget)
        if a1 is not QueryResult.YES:
            if a1 is not QueryResult.EXHAUSTED:
                decided += 1
            continue
        a2 = decide(second, s.budget)
        if a2 is QueryResult.EXHAUSTED:
            continue
        decided += 1
        if a2 is QueryResult.YES:
            cex = Counterexample(
                "disjoint intervals both decided Yes",
                ((first, a1), (second, a2)),
                s.budget,
            )
            return _report("Disjointness", samples, decided, cex)
    return _report("Disjointness", samples, decided, None)


def _check_narrowing(s: _Sampler, samples: int) -> AxiomReport:
    decided = 0
    base = s.base.width or Fraction(1)
    for _ in range(samples):
        length = base / (1 << s.rng.randrange(1, 16))
        got = s.oracle.refine(length, s.budget)
        if got is None:
            continue
        decided += 1
        if got.width > length:
            cex = Counterexample(
                f"refine produced width {got.width} above requested {length}",
                ((got, QueryResult.YES),),
                s.budget,
            )
            return _report("Narrowing", samples, decided, cex)
    return _report("Narrowing", samples, decided, None)


def _check_intersection(s: _Sampler, samples: int) -> AxiomReport:
    decide = s.oracle.decide
    decided = 0
    yes_seen: List[RInterval] = []
    running: Optional[RInterval] = None
    for _ in range(samples):
        i, j = s.span_indices()
        candidate = s.iv(i, j)
        answer = decide(candidate, s.budget)
        if answer is QueryResult.EXHAUSTED:
            continue
        decided += 1
        if answer is not QueryResult.YES:
            continue
        yes_seen.append(candidate)
        running = candidate if running is None else running.intersection(candidate)
        if running is None:
            clash = next(iv for iv in yes_seen if not iv.intersects(candidate))
            cex = Counterexample(
                "two Yes intervals are disjoint",
                ((clash, QueryResult.YES), (candidate, QueryResult.YES)),
                s.budget,
            )
            return _report("Intersection", samples, decided, cex)
    return _report("Intersection", samples, decided, None)


_CHECKS: Tuple[Tuple[str, _CheckFn], ...] = (
    ("Consistency", _check_consistency),
    ("Existence", _check_existence),
    ("Closed", _check_closed),
    ("Rooted", _check_rooted),
    ("IntervalSeparation", _check_separation),
    ("TwoPointSeparation", _check_two_point),
    ("Disjointness", _check_disjointness),
    ("Narrowing", _check_narrowing),
    ("Intersection", _check_intersection),
)


def check_axioms(
    oracle: Oracle, sampler_seed: int, samples: int, budget: Budget
) -> List[AxiomReport]:
    """Run all nine property checks; deterministic for a given seed."""
    if samples < 1:
        raise ValueError("need at least one sample")
    sampler = _Sampler(oracle, sampler_seed, budget)
    return [check(sampler, samples) for _, check in _CHECKS]


def format_reports(reports: Sequence[AxiomReport]) -> str:
    return "\n".join(str(r) for r in reports)
