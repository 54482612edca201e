import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from realoracle.arithmetic import (
    CompareResult,
    compare,
    o_abs,
    o_add,
    o_mul,
    o_neg,
    o_recip,
    o_sub,
)
from realoracle.constructors import SignFunction, UpperBoundTest, ivt_oracle, lub_oracle, nth_root_oracle, rational_oracle
from realoracle.errors import ZeroWitnessInvalid
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, QueryResult

AMPLE = Budget(400)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def sqrt2():
    return nth_root_oracle(2, 2)


class TestRootedFastPath:
    def test_sum_of_rationals_is_rational(self):
        o = o_add(rational_oracle(F(1, 3)), rational_oracle(F(1, 6)))
        assert o.root == F(1, 2)
        assert o.decide(RInterval(F(1, 2), F(1, 2)), Budget(0)) is QueryResult.YES

    @given(p=small_rationals, q=small_rationals)
    def test_all_operations(self, p, q):
        x, y = rational_oracle(p), rational_oracle(q)
        assert o_add(x, y).root == p + q
        assert o_sub(x, y).root == p - q
        assert o_mul(x, y).root == p * q
        assert o_neg(x).root == -p
        assert o_abs(x).root == abs(p)

    def test_recip_of_rooted(self):
        o = o_recip(rational_oracle(F(2, 3)), interval_make(F(1, 2), 1))
        assert o.root == F(3, 2)

    def test_recip_rooted_outside_witness(self):
        with pytest.raises(ZeroWitnessInvalid):
            o_recip(rational_oracle(5), interval_make(1, 2))


class TestDerivedEnclosures:
    def test_mul_sqrt2_squared_contains_two(self):
        got = o_mul(sqrt2(), sqrt2()).refine(F(1, 10**20), AMPLE)
        assert got is not None
        assert got.lo <= 2 <= got.hi and got.width <= F(1, 10**20)

    def test_difference_with_self_straddles_zero_forever(self):
        x = sqrt2()
        s = o_add(x, o_neg(x))
        zero = RInterval(F(0), F(0))
        for budget in (1, 10, 100, 1000):
            assert s.decide(zero, Budget(budget)) is QueryResult.EXHAUSTED

    def test_identities_at_enclosure_level(self):
        x = sqrt2()
        cancel = o_add(x, o_neg(x))
        got = cancel.refine(F(1, 10**12), AMPLE)
        assert got.lo <= 0 <= got.hi
        unit = o_mul(x, o_recip(x, interval_make(1, 2)))
        got = unit.refine(F(1, 10**12), AMPLE)
        assert got.lo <= 1 <= got.hi

    def test_nested_enclosures_along_refinement(self):
        expr = o_mul(o_add(sqrt2(), rational_oracle(1)), sqrt2())
        coarse = expr.refine(F(1, 100), AMPLE)
        fine = expr.refine(F(1, 10**10), AMPLE)
        finer = expr.refine(F(1, 10**18), AMPLE)
        assert coarse.encloses(fine) and fine.encloses(finer)

    def test_abs_of_signed_enclosure(self):
        import math

        x = sqrt2()
        diff = o_sub(x, rational_oracle(2))  # a negative number
        got = o_abs(diff).refine(F(1, 10**9), AMPLE)
        # Independent bound on 2 - sqrt2 from a 30-digit integer square root.
        scale = 10**30
        isq = math.isqrt(2 * scale * scale)
        true_lo = 2 - F(isq + 1, scale)
        true_hi = 2 - F(isq, scale)
        assert got.lo <= true_lo and true_hi <= got.hi


class TestRecipWitness:
    def test_witness_containing_zero_rejected(self):
        with pytest.raises(ZeroWitnessInvalid):
            o_recip(sqrt2(), interval_make(-1, 2))

    def test_witness_definitively_wrong_rejected(self):
        with pytest.raises(ZeroWitnessInvalid):
            o_recip(sqrt2(), interval_make(3, 4))

    def test_a_lie_is_refused_at_construction(self):
        # [141/100, 142/100] holds sqrt2, so it is a fine witness. sqrt2
        # decides [142/100, 143/100] No, so that lie is refused at once.
        fine = o_recip(sqrt2(), interval_make(F(141, 100), F(142, 100)))
        assert fine.refine(F(1, 10**9), AMPLE) is not None
        with pytest.raises(ZeroWitnessInvalid, match="decided No"):
            o_recip(sqrt2(), interval_make(F(142, 100), F(143, 100)))


class TestLiesNearTheNumber:
    """Lies that no bounded query refutes: the witness must be decided Yes."""

    N, D, E = 2**101 - 1, 2**100, 2**100

    def test_a_witness_ending_just_below_the_number_is_refused(self):
        # 1:N/D ends 2^-100 below sqrt(2)*sqrt(2) = 2; trusted, it would
        # make D/N:1 a Yes interval of the reciprocal 1/2.
        x = o_mul(sqrt2(), sqrt2())
        with pytest.raises(ZeroWitnessInvalid, match="not decided Yes within 64 steps"):
            o_recip(x, interval_make(1, F(self.N, self.D))).decide(interval_make(F(self.D, self.N), 1), Budget(10))

    def test_a_witness_on_the_wrong_side_of_zero_is_refused(self):
        # The number is 2^-100 > 0, and -1:-2^-200 lies below 0; trusted, it
        # would make -2^200:-1/2 a Yes interval of the reciprocal 2^100.
        x = o_add(o_sub(o_mul(sqrt2(), sqrt2()), rational_oracle(2)), rational_oracle(F(1, self.E)))
        with pytest.raises(ZeroWitnessInvalid, match="not decided Yes within 64 steps"):
            o_recip(x, interval_make(-1, F(-1, self.E**2))).decide(interval_make(-self.E**2, F(-1, 2)), Budget(10))


class TestCompare:
    def test_rooted_pair(self):
        assert compare(rational_oracle(F(1, 2)), rational_oracle(F(1, 3)), Budget(1)) is CompareResult.GREATER

    def test_sqrt2_below_three_halves(self):
        assert compare(sqrt2(), rational_oracle(F(3, 2)), AMPLE) is CompareResult.LESS

    def test_same_oracle_undecided(self):
        x = sqrt2()
        for budget in (1, 10, 100):
            assert compare(x, x, Budget(budget)) is CompareResult.UNDECIDED

    def test_equal_known_for_equal_roots(self):
        assert compare(rational_oracle(F(2, 4)), rational_oracle(F(1, 2)), Budget(1)) is CompareResult.EQUAL_KNOWN

    @given(p=small_rationals, q=small_rationals)
    def test_matches_rational_order_at_budget_one(self, p, q):
        got = compare(rational_oracle(p), rational_oracle(q), Budget(1))
        if p < q:
            assert got is CompareResult.LESS
        elif p > q:
            assert got is CompareResult.GREATER
        else:
            assert got is CompareResult.EQUAL_KNOWN

    def test_antisymmetry_on_mixed_operands(self):
        rng = random.Random(5)
        for _ in range(25):
            q = F(rng.randint(-3, 5), rng.randint(1, 7))
            x = sqrt2()
            y = rational_oracle(q)
            fwd = compare(x, y, Budget(64))
            bwd = compare(y, x, Budget(64))
            if fwd is CompareResult.LESS:
                assert bwd is CompareResult.GREATER
            elif fwd is CompareResult.GREATER:
                assert bwd is CompareResult.LESS

    def test_definitive_results_match_decimal_enclosures(self):
        # Differential check against 200-digit integer square root bounds.
        import math

        scale = 10**200
        isq = math.isqrt(2 * scale * scale)
        lo_bound = F(isq, scale)  # lo <= sqrt2 < hi
        hi_bound = F(isq + 1, scale)
        rng = random.Random(6)
        for _ in range(30):
            q = F(rng.randint(0, 300), rng.randint(1, 200))
            got = compare(sqrt2(), rational_oracle(q), Budget(700))
            if got is CompareResult.LESS:
                assert hi_bound < q or (lo_bound < q <= hi_bound)
                assert q > lo_bound
            elif got is CompareResult.GREATER:
                assert q < hi_bound


class TestOperatorSugar:
    def test_dunders_delegate(self):
        x = sqrt2()
        assert ((x + x) - x).label
        got = (x * x).refine(F(1, 10**6), AMPLE)
        assert got.lo <= 2 <= got.hi
        assert (-rational_oracle(3)).root == -3
        assert abs(rational_oracle(-3)).root == 3


class TestClampMakesNoRoot:
    """A witness is proven before it narrows the operand, so no root is made
    up from it."""

    def test_lying_witness_ending_at_a_truncation_raises(self):
        # s is sqrt(2) truncated to 100 bits, so the witness 1:s ends 2^-100
        # below the operand, too close to refute within the check budget.
        s = F(math.isqrt(2 * 4**100), 2**100)
        x = o_mul(sqrt2(), rational_oracle(1))
        with pytest.raises(ZeroWitnessInvalid, match="not decided Yes"):
            o_recip(x, interval_make(1, s))
        assert x.root is None

    def test_true_witness_ending_at_the_value_still_refines(self):
        # An opaque sign's zero z decides the witness z:2 Yes by its exact
        # hint, which places z EQUAL and so roots it: the result is 1/z.
        z = 1 + F(1, 3**50)
        x = ivt_oracle(SignFunction(lambda t: (t > z) - (t < z)), 1, 2)
        r = o_recip(x, interval_make(z, 2))
        assert x.root == z and r.root == 1 / z
        assert r.refine(F(1, 10**30), Budget(200)) == interval_make(1 / z, 1 / z)
        # The number 1, approached from below (the lub of u >= 1), never
        # decides 1:2 Yes, so that true witness is refused.
        x = lub_oracle(UpperBoundTest(lambda u: u >= 1, F(0), F(2)))
        with pytest.raises(ZeroWitnessInvalid, match="not decided Yes"):
            o_recip(x, interval_make(1, 2))
        assert x.root is None

    def test_cuts_to_a_point_stay_nested(self):
        x = lub_oracle(UpperBoundTest(lambda u: u >= 1, F(0), F(2)))
        r = o_recip(x, interval_make(F(1, 2), 3))
        seen = [got for got, _ in zip(r.refiner(), range(40))]
        assert all(a.encloses(b) for a, b in zip(seen, seen[1:]))
        assert seen[-1].width < F(1, 10**9)


class TestPointWitness:
    def test_a_point_witness_near_an_unrooted_operand_is_refused(self):
        # The number is 2 + 2^-100, so the bounded check cannot refute the
        # witness 2:2; a cut to it would root the result at 1/2.
        x = o_add(o_mul(sqrt2(), sqrt2()), rational_oracle(F(1, 2**100)))
        with pytest.raises(ZeroWitnessInvalid):
            o_recip(x, interval_make(2, 2))
        assert x.root is None

    @pytest.mark.parametrize("x", [rational_oracle(2), nth_root_oracle(2, 4)], ids=["rational", "root"])
    def test_a_true_point_witness_on_a_rooted_operand_is_exact(self, x):
        assert o_recip(x, interval_make(2, 2)).root == F(1, 2)


class TestNodeLabels:
    def test_short_labels_unchanged(self):
        x, y = sqrt2(), rational_oracle(F(1, 3))
        assert o_mul(o_add(x, y), o_neg(x)).label == "((root(2, 2) + rational(1/3)) * -(root(2, 2)))"

    def test_repeated_squaring_keeps_labels_short(self):
        y = sqrt2()
        for _ in range(20):
            y = o_mul(y, y)
        assert len(y.label) <= 1000
        assert y.label.startswith("((((") and "..." in y.label
