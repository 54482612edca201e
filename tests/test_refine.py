import math
import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import o_add, o_neg
from realoracle.constructors import (
    ivt_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.errors import BudgetExhausted, InvalidFonsi
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, FonsiSource, Placement, oracle_from_fonsi
from realoracle.refine import (
    best_approx,
    bisect_step,
    mediant_expand,
    to_decimal,
)

AMPLE = Budget(500)


def sqrt2():
    return nth_root_oracle(2, 2)


def golden():
    return ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2)


def euclid_cf(q: F):
    """Independent continued fraction of a rational via the Euclidean walk."""
    terms = []
    num, den = q.numerator, q.denominator
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            return terms
        num, den = den, rem


def digits_enclosure(square_scaled: int, scale: int):
    """[isqrt(x)/s, (isqrt(x)+1)/s]: an independent enclosure of sqrt(x)/s."""
    r = math.isqrt(square_scaled)
    return F(r, scale), F(r + 1, scale)


class TestBisectStep:
    def test_keeps_lower_half(self):
        got = bisect_step(sqrt2(), interval_make(1, 2), AMPLE)
        assert got == interval_make(1, F(3, 2))

    def test_singleton_preferred_on_root(self):
        got = bisect_step(rational_oracle(F(1, 2)), interval_make(0, 1), AMPLE)
        assert got == RInterval(F(1, 2), F(1, 2))

    def test_keeps_upper_half(self):
        got = bisect_step(sqrt2(), interval_make(1, F(3, 2)), AMPLE)
        assert got == interval_make(F(5, 4), F(3, 2))

    def test_halves_width_iteratively(self):
        o = sqrt2()
        iv = interval_make(1, 2)
        for k in range(1, 12):
            iv = bisect_step(o, iv, AMPLE)
            assert iv.width <= F(1, 2**k)

    def test_derived_midpoint_hit_exhausts(self):
        x = sqrt2()
        s = o_add(x, o_neg(x))  # the number 0
        with pytest.raises(BudgetExhausted):
            bisect_step(s, interval_make(-1, 1), Budget(50))

    def test_singleton_input_rejected(self):
        with pytest.raises(ValueError):
            bisect_step(sqrt2(), RInterval(F(1), F(1)), AMPLE)

    def test_rational_midpoint_never_reaches_singleton(self):
        # Bisection from [0, 1] walks dyadic midpoints; 1/3 is never hit.
        o = rational_oracle(F(1, 3))
        iv = interval_make(0, 1)
        for _ in range(20):
            iv = bisect_step(o, iv, AMPLE)
            assert not iv.is_singleton

    def test_mediant_walk_finishes_where_bisection_cannot(self):
        cf = mediant_expand(rational_oracle(F(1, 3)), 10, AMPLE)
        assert cf.exact_terminated and cf.convergents[-1] == F(1, 3)


class TestMediantExpand:
    def test_sqrt2_terms_and_pell_identity(self):
        cf = mediant_expand(sqrt2(), 5, AMPLE)
        assert cf.terms == (1, 2, 2, 2, 2)
        for conv in cf.convergents:
            assert abs(conv.numerator**2 - 2 * conv.denominator**2) == 1

    def test_rational_terminates_with_exact_value(self):
        cf = mediant_expand(rational_oracle(F(3, 7)), 10, AMPLE)
        assert cf.exact_terminated
        assert cf.convergents[-1] == F(3, 7)
        assert cf.terms == tuple(euclid_cf(F(3, 7)))

    def test_golden_ratio_is_all_ones_with_fibonacci_convergents(self):
        cf = mediant_expand(golden(), 6, AMPLE)
        assert cf.terms == (1, 1, 1, 1, 1, 1)
        fib = [1, 1, 2, 3, 5, 8, 13]
        expected = [F(fib[i + 1], fib[i]) for i in range(6)]
        assert list(cf.convergents) == expected

    def test_integer_target(self):
        cf = mediant_expand(rational_oracle(F(4)), 5, AMPLE)
        assert cf.terms == (4,) and cf.exact_terminated

    def test_negative_target(self):
        cf = mediant_expand(rational_oracle(F(-3, 7)), 10, AMPLE)
        assert cf.exact_terminated and cf.convergents[-1] == F(-3, 7)
        assert cf.terms == tuple(euclid_cf(F(-3, 7)))

    def test_determinant_identity(self):
        cf = mediant_expand(sqrt2(), 9, AMPLE)
        pq = [(c.numerator, c.denominator) for c in cf.convergents]
        for (p0, q0), (p1, q1) in zip(pq, pq[1:]):
            assert p1 * q0 - p0 * q1 in (-1, 1)

    def test_convergents_alternate_sides(self):
        o = sqrt2()
        cf = mediant_expand(o, 8, AMPLE)
        sides = [o.locate(c, AMPLE) for c in cf.convergents]
        for a, b in zip(sides, sides[1:]):
            assert {a, b} == {Placement.LESS, Placement.GREATER}

    def test_step_count_bounded_by_term_sum(self):
        rng = random.Random(13)
        for _ in range(50):
            q = F(rng.randint(1, 3000), rng.randint(1, 500))
            cf = mediant_expand(rational_oracle(q), 64, AMPLE)
            assert cf.exact_terminated and cf.convergents[-1] == q
            assert cf.steps <= sum(euclid_cf(q))

    def test_budget_exhaustion_on_derived_boundary(self):
        x = sqrt2()
        zero = o_add(x, o_neg(x))
        with pytest.raises(BudgetExhausted):
            mediant_expand(zero, 3, Budget(30))


class TestBestApprox:
    def test_sqrt2_denominator_10(self):
        assert best_approx(sqrt2(), 10, AMPLE) == F(7, 5)

    def test_sqrt2_denominator_100(self):
        # Exhaustive search over q <= 100 against a 50-digit enclosure picks
        # the semiconvergent 140/99, beating the convergent 99/70 by a hair:
        # 2 * 13860**2 = 384199200 < 19601**2 = 384199201.
        lo, hi = digits_enclosure(2 * 10**100, 10**50)
        best, best_err = None, None
        for den in range(1, 101):
            num = round(F(lo.numerator, lo.denominator) * den)
            for p in (num - 1, num, num + 1):
                err = max(abs(F(p, den) - lo), abs(F(p, den) - hi))
                if best_err is None or err < best_err:
                    best, best_err = F(p, den), err
        assert best == F(140, 99)
        assert best_approx(sqrt2(), 100, AMPLE) == F(140, 99)

    def test_rational_returns_itself(self):
        assert best_approx(rational_oracle(F(1, 3)), 10, AMPLE) == F(1, 3)

    def test_equidistant_tie_breaks_low(self):
        assert best_approx(rational_oracle(F(1, 2)), 1, AMPLE) == 0

    def test_integer_bound(self):
        assert best_approx(sqrt2(), 1, AMPLE) == 1
        assert best_approx(golden(), 1, AMPLE) == 2

    def test_brute_force_small_denominators(self):
        lo, hi = digits_enclosure(2 * 10**100, 10**50)
        o = sqrt2()
        for limit in range(1, 51):
            best, best_err = None, None
            for den in range(1, limit + 1):
                for p in range(0, 2 * den + 2):
                    err = max(abs(F(p, den) - lo), abs(F(p, den) - hi))
                    if best_err is None or err < best_err:
                        best, best_err = F(p, den), err
            assert best_approx(o, limit, AMPLE) == best


class TestToDecimal:
    def test_sqrt2_ten_digits(self):
        got = to_decimal(sqrt2(), 10, AMPLE)
        # Digits cross-checked against the integer square root of 2 * 10**24.
        want = str(math.isqrt(2 * 10**24))
        assert got.digits_text.replace(".", "")[: len(want) - 2] == want[:-2]
        assert str(got) == "1.4142135623 ± 1e-10"

    def test_terminating_decimal_flag(self):
        got = to_decimal(rational_oracle(F(1, 4)), 3, AMPLE)
        assert str(got) == "0.250 ± 1e-3 (exact)"
        assert got.exact

    def test_shifted_sqrt2(self):
        got = to_decimal(o_add(sqrt2(), rational_oracle(1)), 5, AMPLE)
        assert str(got) == "2.41421 ± 1e-5"

    def test_nonterminating_rational_not_exact(self):
        got = to_decimal(rational_oracle(F(1, 3)), 4, AMPLE)
        assert str(got) == "0.3333 ± 1e-4"
        assert not got.exact

    def test_negative_number(self):
        got = to_decimal(rational_oracle(F(-1, 4)), 2, AMPLE)
        assert got.digits_text == "-0.25" and got.exact

    def test_zero_digits(self):
        got = to_decimal(rational_oracle(F(7, 2)), 0, AMPLE)
        assert got.digits_text == "3"

    def test_boundary_straddle_exhausts(self):
        x = sqrt2()
        zero = o_add(x, o_neg(x))  # exactly 0; floor digit undecidable
        with pytest.raises(BudgetExhausted):
            to_decimal(zero, 3, Budget(200))

    def test_enclosure_contains_the_number(self):
        o = golden()
        got = to_decimal(o, 12, AMPLE)
        half_width = F(1, 10**12)
        assert o.decide(interval_make(got.value, got.value + half_width), AMPLE).value == "Yes"


class TestLongOutput:
    # Beyond the interpreter's default limit of 4300 digits for str(int).
    def test_rational_to_5000_places(self):
        got = to_decimal(rational_oracle(F(2, 3)), 5000, Budget(1))
        assert got.digits_text == "0." + "6" * 5000

    def test_negative_rational_to_5000_places(self):
        got = to_decimal(rational_oracle(F(-2, 3)), 5000, Budget(1))
        assert got.digits_text == "-0." + "6" * 4999 + "7"
        assert got.value == F(-(2 * 10**5000 + 1) // 3, 10**5000)

    def test_root_to_4400_places(self):
        got = to_decimal(sqrt2(), 4400, Budget(20000))
        scale = 10**4400
        assert got.value == F(math.isqrt(2 * scale * scale), scale)
        assert got.digits_text.startswith("1.41421356237") and len(got.digits_text) == 4402


class TestDecimalSpendsOneBudget:
    def test_straddling_leaf_draws_at_most_the_budget(self):
        drawn = []

        def around_half():
            width = F(1)
            while True:
                drawn.append(width)
                yield interval_make(F(1, 2) - width, F(1, 2) + width)
                width /= 2

        o = oracle_from_fonsi(FonsiSource(around_half()))
        with pytest.raises(BudgetExhausted):
            to_decimal(o, 1, Budget(50))
        assert 0 < len(drawn) <= 50

    def test_kept_error_raised_where_the_cache_fixes_the_digits(self):
        o = oracle_from_fonsi(FonsiSource(iter([interval_make(F(1, 4), F(1, 2)), interval_make(2, 3)])))
        with pytest.raises(InvalidFonsi):
            o.refine(F(1, 1000), Budget(5))
        with pytest.raises(InvalidFonsi):
            to_decimal(o, 0, Budget(5))
