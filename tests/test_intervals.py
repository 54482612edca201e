import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from realoracle.errors import ZeroInDenominator
from realoracle.intervals import (
    ArithOp,
    IntervalRelation,
    RInterval,
    _le,
    _q_add,
    _q_mul,
    _q_recip,
    _q_sub,
    _raw_fraction,
    _width_ratio,
    dyadic,
    format_interval,
    format_rational,
    interval_arith,
    interval_contains,
    interval_intersection,
    interval_make,
    interval_relate,
    parse_interval,
    parse_rational,
    round_out,
)
from realoracle.oracle import _narrow_verdict, mag_bits, precision

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


class TestMake:
    def test_normalizes_order(self):
        assert interval_make(2, 1) == RInterval(F(1), F(2))

    def test_singleton(self):
        iv = interval_make(F(1, 2), F(1, 2))
        assert iv.is_singleton and iv.width == 0

    def test_already_ordered(self):
        assert interval_make(F(-3, 4), 5) == RInterval(F(-3, 4), F(5))

    def test_direct_misorder_rejected(self):
        with pytest.raises(ValueError):
            RInterval(F(2), F(1))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            interval_make(0.5, 1)

    def test_contains_coerces_its_point_as_interval_contains_does(self):
        i = interval_make(0, 1)
        for contains in (i.contains, lambda q: interval_contains(i, q)):
            with pytest.raises(TypeError):
                contains(0.5)
            assert contains("1/2") and contains(1) and not contains("3/2")


class TestContains:
    def test_inclusive_endpoint(self):
        assert interval_contains(interval_make(1, 2), 1)

    def test_outside(self):
        assert not interval_contains(interval_make(1, 2), 3)

    def test_singleton_self_membership(self):
        assert interval_contains(interval_make(F(1, 2), F(1, 2)), F(1, 2))


class TestRelate:
    def test_superset(self):
        assert interval_relate(interval_make(1, 4), interval_make(2, 3)) is IntervalRelation.SUPERSET

    def test_disjoint(self):
        assert interval_relate(interval_make(1, 2), interval_make(3, 4)) is IntervalRelation.DISJOINT

    def test_shared_endpoint_overlaps(self):
        assert interval_relate(interval_make(1, 2), interval_make(2, 3)) is IntervalRelation.OVERLAP_ONLY

    def test_subset_and_equal(self):
        assert interval_relate(interval_make(2, 3), interval_make(1, 4)) is IntervalRelation.SUBSET
        assert interval_relate(interval_make(1, 2), interval_make(1, 2)) is IntervalRelation.EQUAL

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_intersection_present_iff_not_disjoint(self, a, b, c, d):
        i, j = interval_make(a, b), interval_make(c, d)
        present = interval_intersection(i, j) is not None
        assert present == (interval_relate(i, j) is not IntervalRelation.DISJOINT)


class TestIntersection:
    def test_overlap(self):
        assert interval_intersection(interval_make(1, 3), interval_make(2, 4)) == interval_make(2, 3)

    def test_endpoint_touch_gives_singleton(self):
        got = interval_intersection(interval_make(1, 2), interval_make(2, 4))
        assert got == interval_make(2, 2) and got.is_singleton

    def test_disjoint_absent(self):
        assert interval_intersection(interval_make(0, 1), interval_make(2, 3)) is None


class TestArithmetic:
    def test_add_endpoint_sums(self):
        got = interval_arith(ArithOp.ADD, interval_make(1, 2), interval_make(3, 5))
        assert got == interval_make(4, 7)

    def test_mul_matches_endpoint_product_search(self):
        i, j = interval_make(-1, 2), interval_make(3, 4)
        products = [x * y for x in (i.lo, i.hi) for y in (j.lo, j.hi)]
        expected = interval_make(min(products), max(products))
        assert expected == interval_make(-4, 8)
        assert interval_arith(ArithOp.MUL, i, j) == expected

    def test_recip_by_sampling(self):
        i = interval_make(2, 4)
        got = interval_arith(ArithOp.RECIP, i)
        assert got == interval_make(F(1, 4), F(1, 2))
        for k in range(33):
            x = i.lo + (i.hi - i.lo) * k / 32
            assert got.contains(1 / x)

    def test_recip_rejects_zero(self):
        with pytest.raises(ZeroInDenominator):
            interval_arith(ArithOp.RECIP, interval_make(-1, 1))

    def test_neg(self):
        assert interval_arith(ArithOp.NEG, interval_make(-1, 2)) == interval_make(-2, 1)

    def test_soundness_bulk(self):
        # x op y always lands inside the image interval.
        rng = random.Random(9)

        def rand_q():
            return F(rng.randint(-1000, 1000), rng.randint(1, 60))

        for _ in range(10_000):
            i = interval_make(rand_q(), rand_q())
            j = interval_make(rand_q(), rand_q())
            t, u = rng.random(), rng.random()
            x = i.lo + (i.hi - i.lo) * F(rng.randint(0, 16), 16)
            y = j.lo + (j.hi - j.lo) * F(rng.randint(0, 16), 16)
            assert i.add(j).contains(x + y)
            assert i.mul(j).contains(x * y)
            assert i.neg().contains(-x)
        del t, u

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_mul_tightness(self, a, b, c, d):
        # Both result endpoints are attained by an endpoint product.
        i, j = interval_make(a, b), interval_make(c, d)
        got = i.mul(j)
        products = {x * y for x in (i.lo, i.hi) for y in (j.lo, j.hi)}
        assert got.lo in products and got.hi in products


class TestRationalPlumbing:
    @given(p=rationals, q=rationals)
    def test_field_round_trips(self, p, q):
        assert (p + q) - q == p
        if q != 0:
            assert (p * q) / q == p

    @given(p=rationals)
    def test_canonical_form(self, p):
        import math

        assert p.denominator > 0
        assert math.gcd(abs(p.numerator), p.denominator) == 1

    def test_text_round_trip(self):
        for text in ("3", "-7/5", "0", "22/7"):
            assert format_rational(parse_rational(text)) == text

    def test_parse_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("1/-2")

    def test_interval_text_round_trip(self):
        iv = interval_make(F(-3, 4), F(5))
        assert parse_interval(format_interval(iv)) == iv
        assert format_interval(iv) == "-3/4:5"

    @given(n=st.integers(min_value=-10**9, max_value=10**9), k=st.integers(min_value=0, max_value=80))
    def test_dyadic_matches_fraction(self, n, k):
        assert dyadic(n, k) == F(n, 2**k)


def _same_fraction(got, want):
    assert type(got) is F
    assert (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))
    assert got == want and str(got) == str(want) and got + 0 == want


class TestRawFraction:
    # _raw_fraction fills Fraction's private slots without a gcd; these
    # pin that layout on every interpreter the suite runs on.
    @given(q=st.one_of(rationals, st.fractions(max_denominator=2**200)),
           big=st.integers(min_value=-(2**300), max_value=2**300))
    @example(q=F(1, 2**61 - 1), big=0)  # the hash modulus as a denominator
    def test_raw_fraction_is_a_fraction(self, q, big):
        _same_fraction(_raw_fraction(q.numerator, q.denominator), q)
        _same_fraction(_raw_fraction(big, 1), F(big))

    @given(n=st.integers(min_value=-(2**200), max_value=2**200), k=st.integers(min_value=-80, max_value=300))
    def test_dyadic_is_a_fraction(self, n, k):
        _same_fraction(dyadic(n, k), F(n) / F(2) ** k)


class TestLongText:
    # Beyond the interpreter's default limit of 4300 digits for str(int).
    def test_large_ints_both_signs(self):
        n = 10**5000 // 7
        digits = "142857" * 833 + "14"
        assert format_rational(F(n)) == digits
        assert format_rational(F(-n, 3)) == "-" + digits + "/3"


# Endpoints for the order primitives: small ints, non-dyadic rationals of
# both signs and zero, and dyadics of about 5000 bits; drawn from a small
# pool, so that equal endpoints come up often.
_points = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    rationals,
    st.builds(dyadic, st.integers(min_value=-(2**5001), max_value=2**5001), st.integers(min_value=4990, max_value=5010)),
)


@st.composite
def _pooled(draw, count):
    pool = draw(st.lists(_points, min_size=1, max_size=4))
    return [draw(st.sampled_from(pool)) for _ in range(count)]


def _exact(q):
    return (q.numerator, q.denominator)


_BIG = dyadic(2**5000 + 1, 4999)

# Non-dyadic rationals whose denominators are products of 2, 3, 5 and 7, so
# that two of them often share factors.
_factored = st.builds(
    F,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.builds(lambda *powers: math.prod(p**e for p, e in zip((2, 3, 5, 7), powers)), *[st.integers(0, 6)] * 4),
)


class TestOrderPrimitives:
    """Interval order tests, sums and differences agree with the operators
    of ``Fraction`` on every kind of endpoint; ``contains`` also takes ints."""

    @given(_pooled(5))
    @example([F(1, 3), F(1, 2), F(-1, 2), F(-1, 3), 0])
    def test_interval_tests_agree_with_fraction_operators(self, points):
        a, b, c, d, q = points
        i, j = interval_make(a, b), interval_make(c, d)
        assert i.contains(q) is (i.lo <= q <= i.hi)
        assert i.contains(F(q)) is (i.lo <= q <= i.hi)
        assert i.encloses(j) is (i.lo <= j.lo and j.hi <= i.hi)
        assert i.intersects(j) is (max(i.lo, j.lo) <= min(i.hi, j.hi))
        both = i.intersection(j)
        if i.intersects(j):
            assert (_exact(both.lo), _exact(both.hi)) == (_exact(max(i.lo, j.lo)), _exact(min(i.hi, j.hi)))
        else:
            assert both is None
        assert i.is_singleton is (i.lo == i.hi)
        assert interval_make(q, q).is_singleton

    @given(_pooled(4))
    @example([F(-1, 2), F(1, 3), F(-2), F(3, 4)])
    @example([F(-1, 3), F(1, 2), F(-1, 2), F(1, 3)])
    def test_mul_agrees_with_fraction_products(self, points):
        a, b, c, d = points
        i, j = interval_make(a, b), interval_make(c, d)
        got = i.mul(j)
        products = [F(x) * y for x in (i.lo, i.hi) for y in (j.lo, j.hi)]
        assert (_exact(got.lo), _exact(got.hi)) == (_exact(min(products)), _exact(max(products)))

    def test_mul_agrees_with_fraction_products_in_every_sign_case(self):
        # Every pair of negative, zero-ended, straddling and positive operands.
        big = dyadic(2**5000 + 1, 4999)
        ends = [-big, -2, F(-1, 3), 0, F(0), F(1, 2), 3, big]
        cases = set()
        for a, b, c, d in itertools.product(ends, repeat=4):
            i, j = interval_make(a, b), interval_make(c, d)
            got = i.mul(j)
            products = [F(x) * y for x in (i.lo, i.hi) for y in (j.lo, j.hi)]
            assert (_exact(got.lo), _exact(got.hi)) == (_exact(min(products)), _exact(max(products))), (i, j)
            cases.add(tuple(((e > 0) - (e < 0)) for e in (i.lo, i.hi, j.lo, j.hi)))
        assert len(cases) == 6 * 6  # sign pairs per operand: --, -0, -+, 00, 0+, ++

    @given(_pooled(4))
    @example([_BIG, F(1, 3), -_BIG, F(-1, 3)])
    @example([F(1, 3), F(1, 6), F(2, 3), F(-1, 3)])  # non-dyadic sums that cancel
    def test_sub_agrees_with_fraction_subtraction(self, points):
        a, b, c, d = (F(p) for p in points)
        i, j = interval_make(a, b), interval_make(c, d)
        # Canonical endpoints: equal numerators, denominators and hashes.
        got = i.sub(j)
        _same_fraction(got.lo, i.lo - j.hi)
        _same_fraction(got.hi, i.hi - j.lo)
        got = i.add(j)
        _same_fraction(got.lo, i.lo + j.lo)
        _same_fraction(got.hi, i.hi + j.hi)
        _same_fraction(i.midpoint(), (i.lo + i.hi) / 2)
        _same_fraction(i.width, i.hi - i.lo)
        _same_fraction(_q_add(a, c), a + c)
        _same_fraction(_q_sub(a, c), a - c)
        assert _le(a, c) is (a <= c) and _le(c, a) is (c <= a)


def _reference_precision(width):
    """The largest b with width <= 2**-b, by Fraction comparisons alone."""
    if width == 0:
        return float("inf")
    b = width.denominator.bit_length() - width.numerator.bit_length()
    while width > F(2) ** -b:
        b -= 1
    while width <= F(2) ** -(b + 1):
        b += 1
    return b


class TestIntegerKernel:
    """Precision, the dyadic product, the reciprocal and the narrow check
    read endpoint integers; they agree with plain ``Fraction`` arithmetic,
    and every value they build is a canonical ``Fraction``."""

    @given(_pooled(2))
    @example([F(1, 3), F(1, 3)])  # a singleton: infinite precision
    @example([-3, 3])  # width 6: precision -3
    @example([_BIG, _BIG + dyadic(1, 6000)])  # 6000 bits deep
    @example([F(1, 3), _BIG])  # mixed dyadic and non-dyadic
    @example([-_BIG, F(-1, 7)])
    def test_precision_reads_the_width_from_endpoint_integers(self, points):
        i = interval_make(*points)
        width = i.hi - i.lo
        assert precision(i) == _reference_precision(width)
        num, den = _width_ratio(i.lo, i.hi)
        assert F(num, den) == width
        mag = max(-i.lo, i.hi)
        assert mag_bits(i) == (-_reference_precision(mag) if mag else 0)

    @given(_pooled(3), st.integers(min_value=-2, max_value=2))
    @example([F(0), _BIG, 1], 0)
    @example([F(1, 3), F(1, 3), 1], 0)
    def test_narrow_check_agrees_with_the_width(self, points, nudge):
        a, b, c = points
        i = interval_make(a, b)
        width = i.hi - i.lo
        # Widths at, just around and away from the interval's own.
        for w in (abs(F(c)), width, width + F(nudge, 3 * 2**6000), width + nudge):
            if w > 0:
                assert (_narrow_verdict(i, w) is i) is (width <= w), (i, w)
                assert (_narrow_verdict(i, w) is None) is (width > w)

    @given(st.one_of(_factored, _points), st.one_of(_factored, _points))
    @example(F(1, 6), F(-1, 6))  # sums to 0
    @example(F(5, 12), F(7, 18))  # denominators share 6
    @example(F(1, 3), _BIG)  # mixed dyadic and non-dyadic
    @example(F(-7, 3 * 2**40), F(5, 9 * 2**38))
    def test_sums_are_canonical_fractions(self, a, b):
        a, b = F(a), F(b)
        _same_fraction(_q_add(a, b), a + b)
        _same_fraction(_q_add(a, -a), F(0))

    @given(_pooled(2))
    @example([_BIG, -_BIG])
    @example([_BIG, F(1, 3)])
    @example([F(-5, 7), -3])
    def test_products_are_canonical_fractions(self, points):
        a, b = (F(p) for p in points)
        _same_fraction(_q_mul(a, b), a * b)
        got = interval_make(a, b).mul(interval_make(b, _BIG))
        products = [x * y for x in (min(a, b), max(a, b)) for y in (min(b, _BIG), max(b, _BIG))]
        _same_fraction(got.lo, min(products))
        _same_fraction(got.hi, max(products))

    @given(_pooled(2))
    @example([_BIG, F(1, 3)])
    @example([-_BIG, F(-1, 3)])
    @example([F(0), F(1, 2)])
    @example([F(-1, 2), 0])
    def test_reciprocals_swap_the_parts(self, points):
        i = interval_make(*points)
        if i.lo <= 0 <= i.hi:
            with pytest.raises(ZeroInDenominator):
                i.recip()
            return
        got = i.recip()
        _same_fraction(got.lo, 1 / i.hi)
        _same_fraction(got.hi, 1 / i.lo)
        _same_fraction(_q_recip(i.lo), 1 / i.lo)
        absolute = i.absolute()
        _same_fraction(absolute.lo, min(abs(i.lo), abs(i.hi)))
        _same_fraction(absolute.hi, max(abs(i.lo), abs(i.hi)))

    @given(_pooled(2))
    @example([F(-1, 3), F(1, 2)])
    @example([-_BIG, F(1, 3)])
    @example([F(-1, 2), F(1, 2)])
    def test_absolute_of_an_interval_around_zero(self, points):
        i = interval_make(*points)
        if i.lo <= 0 <= i.hi:
            got = i.absolute()
            _same_fraction(got.lo, F(0))
            _same_fraction(got.hi, max(-i.lo, i.hi))


class TestRoundOut:
    """``round_out`` floors ``lo`` and ceils ``hi`` onto the ``2**-shift``
    grid, keeping an endpoint already on a coarser grid."""

    @given(_pooled(2), st.one_of(st.integers(min_value=0, max_value=12), st.integers(min_value=4980, max_value=5020)))
    @example([_BIG, _BIG + dyadic(1, 6000)], 5000)
    @example([F(-1, 3), F(1, 3)], 0)
    @example([F(1, 3), F(1, 3)], 1)
    def test_rounds_each_end_outward_by_less_than_a_step(self, points, shift):
        i = interval_make(*points)
        got = round_out(i, shift)
        assert got.encloses(i)
        step = F(1, 2**shift)
        assert 0 <= i.lo - got.lo < step and 0 <= got.hi - i.hi < step
        for end, q, rounded in ((got.lo, i.lo, math.floor), (got.hi, i.hi, math.ceil)):
            want = q if q.denominator <= 2**shift else F(rounded(q * 2**shift), 2**shift)
            _same_fraction(end, want)

    def test_an_endpoint_on_a_coarser_grid_is_kept(self):
        # 1/3 is on no dyadic grid, but its denominator is at most 2**2.
        for lo, hi, shift in ((F(-3, 4), F(1, 3), 2), (F(1), F(5), 0), (F(-1, 8), F(3, 8), 3)):
            i = interval_make(lo, hi)
            assert round_out(i, shift) is i
        got = round_out(interval_make(F(-1, 8), F(5, 16)), 3)
        _same_fraction(got.lo, F(-1, 8))
        _same_fraction(got.hi, F(3, 8))

    @pytest.mark.parametrize(
        "lo,hi,shift,want_lo,want_hi",
        [
            (F(-7, 16), F(-3, 16), 2, F(-1, 2), F(0)),
            (F(-5, 16), F(3, 16), 2, F(-1, 2), F(1, 4)),
            (F(-1, 3), F(-1, 5), 1, F(-1, 2), F(0)),
            (F(-2, 3), F(1, 7), 1, F(-1), F(1, 2)),
            (F(5, 16), F(7, 16), 2, F(1, 4), F(1, 2)),
        ],
    )
    def test_floors_and_ceils_by_sign(self, lo, hi, shift, want_lo, want_hi):
        got = round_out(interval_make(lo, hi), shift)
        _same_fraction(got.lo, want_lo)
        _same_fraction(got.hi, want_hi)
