import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import o_add, o_mul, o_neg, o_sub
from realoracle.axioms import (
    PROPERTY_NAMES,
    Verdict,
    _Sampler,
    check_axioms,
    format_reports,
    replay,
)
from realoracle.constructors import (
    SignFunction,
    UpperBoundTest,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.intervals import interval_make
from realoracle.oracle import Budget, FonsiSource, Oracle, QueryResult, oracle_from_fonsi


class BrokenWidthOracle(Oracle):
    """Deliberately broken decide: Yes exactly when the width is at least 1."""

    def decide(self, interval, budget):
        return QueryResult.YES if interval.width >= 1 else QueryResult.NO


def broken_width_oracle():
    def stream():
        stuck = interval_make(0, 1)
        while True:
            yield stuck

    return BrokenWidthOracle(stream, label="broken(width>=1)")


def stuck_at_unit():
    stuck = interval_make(0, 1)
    while True:
        yield stuck


class NarrowYesOracle(Oracle):
    """Deliberately broken decide: Yes exactly when the width is below 1/4."""

    def decide(self, interval, budget):
        return QueryResult.YES if interval.width < F(1, 4) else QueryResult.NO


class LooseRefineOracle(Oracle):
    """Deliberately broken refine: -10**6:10**6 whatever width is asked."""

    def refine(self, width, budget):
        return interval_make(-(10**6), 10**6)


class TestGoodOracles:
    def test_rational_passes_everything(self):
        reports = check_axioms(rational_oracle(F(1, 2)), 7, 500, Budget(64))
        assert [r.property_name for r in reports] == list(PROPERTY_NAMES)
        assert all(r.verdict is Verdict.PASSED for r in reports)

    def test_sqrt2_passes_with_vacuous_closed(self):
        reports = check_axioms(nth_root_oracle(2, 2), 7, 500, Budget(64))
        assert all(r.verdict is Verdict.PASSED for r in reports)
        closed = next(r for r in reports if r.property_name == "Closed")
        assert closed.samples_run == 0  # no root known, nothing to check

    def test_an_empty_fonsi_is_inconclusive_but_vacuously_closed(self):
        # Nothing refines, so the sampler falls back to its grid around -1:1.
        reports = check_axioms(oracle_from_fonsi(FonsiSource(iter([]))), 7, 50, Budget(64))
        closed = next(r for r in reports if r.property_name == "Closed")
        assert (closed.verdict, closed.samples_run) == (Verdict.PASSED, 0)
        assert all(r.verdict is Verdict.INCONCLUSIVE for r in reports if r is not closed)

    def test_replacement_pair_agrees_with_separation(self):
        # An oracle passing Narrowing and Intersection also passes the
        # separation-derived checks on the same samples.
        reports = check_axioms(nth_root_oracle(3, 2), 11, 300, Budget(64))
        by_name = {r.property_name: r.verdict for r in reports}
        assert by_name["Narrowing"] is Verdict.PASSED
        assert by_name["Intersection"] is Verdict.PASSED
        assert by_name["IntervalSeparation"] is Verdict.PASSED
        assert by_name["TwoPointSeparation"] is Verdict.PASSED
        assert by_name["Disjointness"] is Verdict.PASSED


class TestBrokenOracle:
    def test_multiple_falsifications_with_replay(self):
        oracle = broken_width_oracle()
        reports = check_axioms(oracle, 7, 500, Budget(64))
        falsified = [r for r in reports if r.verdict is Verdict.FALSIFIED]
        assert len(falsified) >= 2
        names = {r.property_name for r in falsified}
        assert "IntervalSeparation" in names
        assert "Disjointness" in names
        for report in falsified:
            cex = report.counterexample
            assert cex is not None
            assert replay(oracle, cex) == tuple(result for _, result in cex.queries)

    def test_narrowing_is_inconclusive_not_proven_false(self):
        # Narrowing is existential; sampling can fail to find a witness but
        # cannot refute it, so the honest verdict is Inconclusive.
        reports = check_axioms(broken_width_oracle(), 7, 200, Budget(64))
        narrowing = next(r for r in reports if r.property_name == "Narrowing")
        assert narrowing.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize(
        "oracle,names",
        [
            (NarrowYesOracle(stuck_at_unit, label="narrow-yes"), ["Consistency", "Existence", "Rooted"]),
            (LooseRefineOracle(stuck_at_unit, label="loose-refine"), ["TwoPointSeparation", "Narrowing"]),
        ],
        ids=["narrow-yes", "loose-refine"],
    )
    def test_each_property_can_be_falsified(self, oracle, names):
        reports = {r.property_name: r for r in check_axioms(oracle, 7, 50, Budget(64))}
        for name in names:
            report = reports[name]
            assert report.verdict is Verdict.FALSIFIED, report
            cex = report.counterexample
            assert replay(oracle, cex) == tuple(result for _, result in cex.queries)


class TestDeterminism:
    def test_same_seed_same_reports(self):
        a = check_axioms(nth_root_oracle(2, 2), 42, 200, Budget(64))
        b = check_axioms(nth_root_oracle(2, 2), 42, 200, Budget(64))
        assert [str(r) for r in a] == [str(r) for r in b]

    def test_broken_counterexamples_reproduce(self):
        a = check_axioms(broken_width_oracle(), 5, 300, Budget(64))
        b = check_axioms(broken_width_oracle(), 5, 300, Budget(64))
        assert format_reports(a) == format_reports(b)


def shared_difference():
    s = nth_root_oracle(2, 2)
    return o_sub(s, s)


PASS_ALL = """\
Consistency Passed 50
Existence Passed 1
Closed Passed {closed}
Rooted Passed 50
IntervalSeparation Passed 50
TwoPointSeparation Passed 50
Disjointness Passed 50
Narrowing Passed 50
Intersection Passed 50"""

# Recorded before the checks shared one trial loop. Each property draws
# from the sampler's one random stream, so a later report pins how many
# draws every earlier property made and at which trial it stopped.
GOLDEN = (
    (lambda: rational_oracle(F(-7, 3)), 3, Budget(64), PASS_ALL.format(closed=1)),
    (lambda: nth_root_oracle(2, 2), 5, Budget(64), PASS_ALL.format(closed=0)),
    (
        lambda: o_add(nth_root_oracle(2, 2), nth_root_oracle(3, 5)),
        11,
        Budget(0),
        """\
Consistency Passed 50
Existence Passed 1
Closed Passed 0
Rooted Passed 50
IntervalSeparation Passed 50
TwoPointSeparation Inconclusive 50
Disjointness Passed 50
Narrowing Inconclusive 50
Intersection Passed 50""",
    ),
    (
        lambda: ivt_oracle(SignFunction(polynomial_sign([-2, 0, 1]).eval_sign), 0, 2),
        13,
        Budget(64),
        PASS_ALL.format(closed=0),
    ),
    (
        lambda: lub_oracle(UpperBoundTest(lambda u: u * u * u >= 3, F(0), F(2))),
        17,
        Budget(64),
        PASS_ALL.format(closed=0),
    ),
    (
        broken_width_oracle,
        19,
        Budget(64),
        """\
Consistency Passed 50
Existence Passed 1
Closed Passed 0
Rooted Passed 50
IntervalSeparation Falsified 4 [split of a Yes interval has 2 Yes pieces: \
decide(-47/96:89/48)=Yes decide(89/48:89/48)=No decide(89/48:139/48)=Yes (budget=64)]
TwoPointSeparation Passed 50
Disjointness Falsified 35 [disjoint intervals both decided Yes: \
decide(-167/96:-9/32)=Yes decide(0:119/48)=Yes (budget=64)]
Narrowing Inconclusive 50
Intersection Falsified 5 [two Yes intervals are disjoint: \
decide(53/96:89/48)=Yes decide(-71/48:23/96)=Yes (budget=64)]""",
    ),
    (shared_difference, 23, Budget(8), PASS_ALL.format(closed=0)),
    (
        shared_difference,
        23,
        Budget(0),
        """\
Consistency Passed 50
Existence Passed 1
Closed Passed 0
Rooted Passed 50
IntervalSeparation Passed 50
TwoPointSeparation Inconclusive 50
Disjointness Passed 50
Narrowing Inconclusive 50
Intersection Passed 50""",
    ),
)


class TestGoldenReports:
    @pytest.mark.parametrize("case", range(len(GOLDEN)))
    def test_reports_match_the_recording(self, case):
        make, seed, budget, want = GOLDEN[case]
        assert format_reports(check_axioms(make(), seed, 50, budget)) == want


class TestReportFormat:
    def test_line_per_property(self):
        text = format_reports(check_axioms(rational_oracle(F(2)), 1, 50, Budget(16)))
        lines = text.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("Consistency Passed ")

    def test_counterexample_rendered_inline(self):
        reports = check_axioms(broken_width_oracle(), 7, 300, Budget(16))
        line = next(str(r) for r in reports if r.verdict is Verdict.FALSIFIED)
        assert "[" in line and "decide(" in line

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            check_axioms(rational_oracle(F(1)), 0, 0, Budget(4))


def sorted_set_grid(base, root):
    """The sampling grid built from a set of Fractions and sorted: the
    construction that the integer progression must reproduce exactly."""
    span = base.width if base.width > 1 else F(1)
    lo, hi = base.lo - 2 * span, base.hi + 2 * span
    step = (hi - lo) / 96
    points = {lo + step * i for i in range(97)}
    points.update((base.lo, base.hi))
    if root is not None:
        points.add(root)
    return sorted(points)


class TestSamplingGrid:
    def oracles(self):
        rng = random.Random(2024)
        for _ in range(6):
            a, b = rng.randint(2, 500), F(rng.randint(2, 500), rng.randint(1, 30))
            yield rational_oracle(F(rng.randint(-900, 900), rng.randint(1, 60))), Budget(64)
            yield nth_root_oracle(rng.choice((2, 3, 5)), b), Budget(64)
            # Trees at budget 0 keep their first enclosure, 2 wide.
            yield o_add(nth_root_oracle(2, a), o_neg(nth_root_oracle(3, b))), Budget(0)
            yield o_mul(nth_root_oracle(2, a), nth_root_oracle(3, b)), Budget(64)
            narrow = o_add(nth_root_oracle(2, a), nth_root_oracle(3, b))
            narrow.refine(F(1, 2**300), Budget(10**4))
            yield narrow, Budget(64)
        yield oracle_from_fonsi(FonsiSource(iter([interval_make(F(-7, 3), F(17, 5))]))), Budget(0)

    def test_integer_grid_equals_the_sorted_set(self):
        wide = narrow = 0
        for seed, (oracle, budget) in enumerate(self.oracles()):
            known = oracle.enclosure
            sampler = _Sampler(oracle, seed, budget)
            want = sorted_set_grid(sampler.base, oracle.root)
            assert [(p.numerator, p.denominator) for p in sampler.grid] == [(p.numerator, p.denominator) for p in want]
            wide += sampler.base.width > 1
            if known is not None and 0 < known.width <= F(1, 2**300):
                # A deep enclosure still samples around its 2^-3 cell.
                base = sampler.base
                assert base.width <= F(1, 4)
                assert (8 * base.lo).denominator == (8 * base.hi).denominator == 1
                assert base.lo <= known.lo and known.hi <= base.hi
                narrow += 1
        assert wide >= 6 and narrow >= 6

    def test_a_refined_leaf_samples_on_the_fresh_grid(self):
        rng = random.Random(2027)
        for seed in range(20):
            for index in (2, 3, 5):
                radicand = F(rng.randint(2, 500), rng.randint(1, 30))
                deep = nth_root_oracle(index, radicand)
                deep.refine(F(1, 2**300), Budget(10**4))
                fresh = _Sampler(nth_root_oracle(index, radicand), seed, Budget(64))
                assert _Sampler(deep, seed, Budget(64)).grid == fresh.grid


class TestSamplerDraws:
    def test_below_draws_as_randrange(self):
        # The golden reports rest on the seeded stream: every index must be
        # the one randrange would have drawn.
        for seed in (0, 1, 7, 2024, 10**6 - 1):
            sampler = _Sampler(rational_oracle(F(1, 3)), seed, Budget(4))
            rng = random.Random(seed)
            for _ in range(3):
                assert [sampler.below(n) for n in range(1, 301)] == [rng.randrange(n) for n in range(1, 301)]


def endpoint_bits(oracle):
    e = oracle.enclosure
    return max(abs(n).bit_length() for n in (e.lo.numerator, e.lo.denominator, e.hi.numerator, e.hi.denominator))


class TestCostOverHistory:
    def test_repeated_checks_do_not_deepen_the_oracle(self):
        # Each call samples around the same 2^-3 cell, so after the first
        # call its questions are served from the cache.
        x = o_sub(o_mul(nth_root_oracle(2, 131), nth_root_oracle(3, 179)), nth_root_oracle(2, 173))
        check_axioms(x, 1, 10, Budget(50))
        first = endpoint_bits(x)
        for seed in range(2, 301):
            check_axioms(x, seed, 10, Budget(50))
        assert endpoint_bits(x) <= first + 8
