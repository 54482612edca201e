import math
import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import CompareResult, compare, o_add, o_mul, o_recip
from realoracle.constructors import (
    SignFunction,
    UpperBoundTest,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    rational_oracle,
)
from realoracle.errors import DomainEscape, OracleError, ZeroInDenominator
from realoracle.functions import (
    FunctionOracle,
    Rectangle,
    apply,
    poly_extension,
    recip_extension,
    rect_decide,
)
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, FonsiSource, QueryResult, oracle_from_fonsi

AMPLE = Budget(400)


def poly_value(coeffs, t):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class TestPolyExtension:
    def test_square_minus_two_on_unit_shifted(self):
        fn = poly_extension([-2, 0, 1])
        assert fn.extension(interval_make(1, 2)) == interval_make(-1, 2)

    def test_constant(self):
        fn = poly_extension([5])
        assert fn.extension(interval_make(-9, 4)) == interval_make(5, 5)

    def test_identity(self):
        fn = poly_extension([0, 1])
        assert fn.extension(interval_make(F(-3, 4), F(5, 8))) == interval_make(F(-3, 4), F(5, 8))

    def test_soundness_bulk(self):
        rng = random.Random(21)
        for _ in range(10_000):
            degree = rng.randint(0, 4)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
            fn = poly_extension(coeffs)
            a = F(rng.randint(-40, 40), rng.randint(1, 8))
            b = a + F(rng.randint(0, 30), rng.randint(1, 8))
            base = interval_make(a, b)
            t = a + (b - a) * F(rng.randint(0, 16), 16)
            assert fn.extension(base).contains(poly_value(coeffs, t))

    def test_modulus_guarantee(self):
        fn = poly_extension([1, -3, 0, 2])
        within = interval_make(-5, 5)
        rng = random.Random(4)
        for _ in range(200):
            want = F(1, rng.randint(2, 10**6))
            delta = fn.modulus(want, within)
            lo = F(rng.randint(-40, 39), 8)
            base = interval_make(lo, min(lo + delta, F(5)))
            assert fn.extension(base).width <= want

    def test_modulus_matches_the_stagewise_slope(self):
        def stagewise(cs, mag):
            # Horner stage k: mag**(k - 1) times the magnitude bound of the
            # polynomial from c_k up.
            degree = len(cs) - 1
            return sum(mag ** (k - 1) * sum(abs(cs[j]) * mag ** (j - k) for j in range(k, degree + 1))
                       for k in range(1, degree + 1))

        rng = random.Random(15)
        want = F(1, 1000)
        for degree in range(7):
            for _ in range(30):
                coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
                for mag in (F(0), F(rng.randint(1, 40), rng.randint(1, 8))):
                    slope = stagewise(coeffs, mag)
                    got = poly_extension(coeffs).modulus(want, interval_make(-mag, mag))
                    assert got == (want / slope if slope else want), (coeffs, mag)


class TestRectDecide:
    def test_exact_monotone_image_inside(self):
        fn = poly_extension([0, 0, 1])
        got = rect_decide(fn, Rectangle(interval_make(1, 2), interval_make(1, 4)), AMPLE)
        assert got is QueryResult.YES

    def test_point_escape_is_no(self):
        fn = poly_extension([0, 0, 1])
        got = rect_decide(fn, Rectangle(interval_make(1, 2), interval_make(1, 3)), AMPLE)
        assert got is QueryResult.NO

    def test_singleton_rectangle(self):
        fn = poly_extension([0, 0, 1])
        point = RInterval(F(0), F(0))
        assert rect_decide(fn, Rectangle(point, point), AMPLE) is QueryResult.YES

    def test_subdivision_defeats_overestimation(self):
        # x**2 - x on [0, 1] has true image [-1/4, 0]; one-shot Horner
        # evaluation gives [-1, 0], so a Yes needs subdivision.
        fn = poly_extension([0, -1, 1])
        wall = interval_make(F(-1, 3), F(1, 100))
        assert fn.extension(interval_make(0, 1)) == interval_make(-1, 0)
        assert rect_decide(fn, Rectangle(interval_make(0, 1), wall), AMPLE) is QueryResult.YES

    def test_budget_exhaustion_on_tight_wall(self):
        fn = poly_extension([0, -1, 1])
        exact_wall = interval_make(F(-1, 4), F(0))  # touches the true image
        got = rect_decide(fn, Rectangle(interval_make(0, 1), exact_wall), Budget(6))
        assert got is QueryResult.EXHAUSTED

    def test_yes_preserved_by_bigger_wall_and_smaller_base(self):
        rng = random.Random(8)
        for _ in range(100):
            coeffs = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
            fn = poly_extension(coeffs)
            a = F(rng.randint(-10, 9))
            base = interval_make(a, a + rng.randint(1, 4))
            image = fn.extension(base)
            wall = interval_make(image.lo - 1, image.hi + 1)
            assert rect_decide(fn, Rectangle(base, wall), AMPLE) is QueryResult.YES
            smaller = interval_make(base.lo + base.width / 4, base.hi - base.width / 4)
            bigger = interval_make(wall.lo - 2, wall.hi + 3)
            assert rect_decide(fn, Rectangle(smaller, bigger), AMPLE) is QueryResult.YES

    def test_a_midpoint_escaping_the_wall_is_no(self):
        # Both ends square to 1, inside the wall; the midpoint 0 does not.
        fn = poly_extension([0, 0, 1])
        got = rect_decide(fn, Rectangle(interval_make(-1, 1), interval_make(F(1, 2), 2)), AMPLE)
        assert got is QueryResult.NO

    def test_a_base_outside_the_domain_raises(self):
        fn = recip_extension(interval_make(1, 2))
        with pytest.raises(DomainEscape):
            rect_decide(fn, Rectangle(interval_make(3, 4), interval_make(0, 1)), AMPLE)

    def test_a_point_base_under_a_loose_extension(self):
        # The extension widens every base by 1 on each side, so a point
        # base never extends into a narrow wall: only ``point`` can answer.
        def loose(base):
            return interval_make(base.lo - 1, base.hi + 1)

        def modulus(width, within):
            return width

        with_point = FunctionOracle(loose, modulus, point=lambda t: t)
        without = FunctionOracle(loose, modulus)
        one, wall = RInterval(F(1), F(1)), interval_make(F(1, 2), F(3, 2))
        assert rect_decide(with_point, Rectangle(one, wall), AMPLE) is QueryResult.YES
        assert rect_decide(without, Rectangle(one, wall), AMPLE) is QueryResult.EXHAUSTED
        five = RInterval(F(5), F(5))
        assert rect_decide(with_point, Rectangle(five, wall), AMPLE) is QueryResult.NO

    def test_agreement_with_monotone_truth(self):
        rng = random.Random(17)
        for _ in range(300):
            # Monotone on the base: odd powers with nonnegative coefficients.
            coeffs = [F(rng.randint(0, 6)) for _ in range(rng.randint(1, 4))]
            fn = poly_extension(coeffs)
            a = F(rng.randint(0, 20), rng.randint(1, 4))
            base = interval_make(a, a + F(rng.randint(1, 12), 4))
            lo_img = poly_value(coeffs, base.lo)
            hi_img = poly_value(coeffs, base.hi)
            margin = (hi_img - lo_img) / 5 + 1
            inside = interval_make(lo_img - margin, hi_img + margin)
            assert rect_decide(fn, Rectangle(base, inside), AMPLE) is QueryResult.YES
            if hi_img > lo_img:
                cut = interval_make(lo_img - margin, hi_img - (hi_img - lo_img) / 7)
                assert rect_decide(fn, Rectangle(base, cut), AMPLE) is QueryResult.NO


class TestApply:
    def test_square_of_sqrt2_contains_two(self):
        fn = poly_extension([0, 0, 1])
        result = apply(fn, nth_root_oracle(2, 2))
        got = result.refine(F(1, 10**10), AMPLE)
        assert got.lo <= 2 <= got.hi

    def test_rooted_argument_evaluates_exactly(self):
        fn = poly_extension([0, 0, 1])
        assert apply(fn, rational_oracle(3)).root == 9

    def test_reciprocal_matches_recip_combinator(self):
        sq2 = nth_root_oracle(2, 2)
        via_fn = apply(recip_extension(interval_make(1, 2)), nth_root_oracle(2, 2))
        via_comb = o_recip(sq2, interval_make(1, 2))
        assert compare(via_fn, via_comb, Budget(150)) is CompareResult.UNDECIDED
        a = via_fn.refine(F(1, 10**20), AMPLE)
        b = via_comb.refine(F(1, 10**20), AMPLE)
        assert a.intersects(b)
        # Both enclose 1/sqrt2: square the reciprocal bounds exactly.
        for iv in (a, b):
            assert iv.lo**2 <= F(1, 2) <= iv.hi**2

    def test_commuting_with_multiplication(self):
        fn = poly_extension([0, 0, 1])
        via_fn = apply(fn, nth_root_oracle(2, 2))
        via_mul = o_mul(nth_root_oracle(2, 2), nth_root_oracle(2, 2))
        a = via_fn.refine(F(1, 10**20), AMPLE)
        b = via_mul.refine(F(1, 10**20), AMPLE)
        assert a.intersects(b)
        assert a.lo <= 2 <= a.hi and b.lo <= 2 <= b.hi

    def test_apply_consistency_on_rationals(self):
        rng = random.Random(12)
        for _ in range(100):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            r = F(rng.randint(-30, 30), rng.randint(1, 12))
            got = apply(poly_extension(coeffs), rational_oracle(r))
            assert got.root == poly_value(coeffs, r)

    def test_domain_escape(self):
        fn = recip_extension(interval_make(1, 2))
        with pytest.raises(DomainEscape):
            apply(fn, rational_oracle(5))
        with pytest.raises(DomainEscape, match="decided No"):
            apply(fn, nth_root_oracle(2, 10))  # about 3.16, outside [1,2]

    def test_recip_extension_rejects_zero_domain(self):
        with pytest.raises(ZeroInDenominator):
            recip_extension(interval_make(-1, 1))

    def test_recip_extension_encloses_every_zero_free_base(self):
        # The extension is exact on any base without 0, inside its domain
        # or not, and refuses a base holding 0.
        fn = recip_extension(interval_make(1, 2))
        assert fn.extension(interval_make(F(1, 2), 2)) == interval_make(F(1, 2), 2)
        assert fn.extension(interval_make(3, 4)) == interval_make(F(1, 4), F(1, 3))
        with pytest.raises(ZeroInDenominator):
            fn.extension(interval_make(-1, 1))

    def test_recip_modulus_guarantee(self):
        fn = recip_extension(interval_make(2, 5))
        for want in (F(1, 10), F(1, 1000), F(1, 10**9)):
            delta = fn.modulus(want, interval_make(2, 5))
            base = interval_make(3, min(3 + delta, F(5)))
            assert fn.extension(base).width <= want


class TestApplyClampMakesNoRoot:
    """A domain is proven before it narrows the argument, so no root is made
    up from it."""

    def test_domain_ending_at_a_truncation_raises(self):
        # The domain 1:s ends 2^-100 below sqrt(2), too close to refute
        # within the check budget.
        s = F(math.isqrt(2 * 4**100), 2**100)
        x = o_mul(nth_root_oracle(2, 2), rational_oracle(1))
        with pytest.raises(DomainEscape, match="not decided Yes"):
            apply(recip_extension(interval_make(1, s)), x)
        assert x.root is None

    def test_domain_ending_at_the_argument_still_refines(self):
        # x is 1, approached from below, so it never decides the domain 1:2
        # Yes, though it lies in it; 1/2:2 has margin, and the result refines.
        x = lub_oracle(UpperBoundTest(lambda u: u >= 1, F(0), F(2)))
        with pytest.raises(DomainEscape, match="not decided Yes"):
            apply(recip_extension(interval_make(1, 2)), x)
        fx = apply(recip_extension(interval_make(F(1, 2), 2)), x)
        got = fx.refine(F(1, 10**6), Budget(100))
        assert got is not None and got.lo <= 1 <= got.hi
        assert fx.root is None


class TestPointDomain:
    def test_a_point_domain_near_an_unrooted_argument_is_refused(self):
        x = o_add(o_mul(nth_root_oracle(2, 2), nth_root_oracle(2, 2)), rational_oracle(F(1, 2**100)))
        with pytest.raises(DomainEscape):
            apply(recip_extension(interval_make(2, 2)), x)
        assert x.root is None

    @pytest.mark.parametrize("x", [rational_oracle(2), nth_root_oracle(2, 4)], ids=["rational", "root"])
    def test_a_true_point_domain_on_a_rooted_argument_is_exact(self, x):
        assert apply(recip_extension(interval_make(2, 2)), x).root == F(1, 2)

    def test_an_argument_that_locates_equal_at_the_point_becomes_rooted(self):
        # An opaque sign's zero 1 + 3^-50 is past its rational-root probe, so
        # the leaf starts unrooted; its exact hint places the point as EQUAL.
        z = 1 + F(1, 3**50)
        x = ivt_oracle(SignFunction(lambda t: (t > z) - (t < z)), 1, 2)
        assert x.root is None
        assert apply(recip_extension(interval_make(z, z)), x).root == 1 / z
        assert x.root == z


class TestApplyPullsStayWithinTheBudget:
    def test_a_stalled_argument_exhausts_without_running_its_target_away(self):
        # x is a fonsi of three intervals around 3/2 that then ends, so no
        # pull after the third makes progress. The gallop's target never
        # runs more than the steps left past the enclosure's precision.
        square = poly_extension([0, 0, 1])
        floor = F(1, 2 ** (200 + 64))

        def modulus(width, within):
            assert width >= floor
            return square.modulus(width, within)

        fn = FunctionOracle(square.extension, modulus, point=square.point)
        x = oracle_from_fonsi(FonsiSource(iter([interval_make(1, 2), interval_make(F(5, 4), F(7, 4)),
                                                interval_make(F(11, 8), F(13, 8))])))
        node = apply(fn, x)
        assert node.decide(interval_make(F(9, 4), F(9, 4)), Budget(200)) is QueryResult.EXHAUSTED

    def test_a_modulus_that_ignores_the_width_is_raised(self):
        # A base width of 1 for any wall width breaks the modulus contract:
        # the argument meets what split asks, yet the image stays wide.
        square = poly_extension([0, 0, 1])
        fn = FunctionOracle(square.extension, lambda width, within: F(1), point=square.point)
        node = apply(fn, nth_root_oracle(2, 3))
        with pytest.raises(OracleError, match="split"):
            node.refine(F(1, 2**40), Budget(1000))
        with pytest.raises(OracleError, match="split"):
            node.decide(interval_make(3, 3), Budget(1000))

    def test_a_float_modulus_refines(self):
        square = poly_extension([0, 0, 1])
        fn = FunctionOracle(square.extension, lambda width, within: float(square.modulus(width, within)))
        got = apply(fn, nth_root_oracle(2, 3)).refine(F(1, 2**40), Budget(1000))
        assert got.width <= F(1, 2**40) and got.contains(F(3))

    @pytest.mark.parametrize("base", [0, F(-1, 4)])
    def test_a_modulus_without_a_positive_width_is_raised(self, base):
        square = poly_extension([0, 0, 1])
        fn = FunctionOracle(square.extension, lambda width, within: base, description="sq")
        node = apply(fn, nth_root_oracle(2, 3))
        with pytest.raises(OracleError, match="modulus of sq"):
            node.refine(F(1, 2**40), Budget(1000))
        with pytest.raises(OracleError, match="modulus of sq"):
            node.decide(interval_make(3, 3), Budget(1000))
