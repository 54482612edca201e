import math
import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import o_add, o_neg
from realoracle.constructors import (
    SignFunction,
    UpperBoundTest,
    ivt_oracle,
    lub_oracle,
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


def recorded(o):
    """Wrap ``o.locate`` on the instance; the list gets every point asked."""
    points = []
    real = o.locate

    def locate(point, budget):
        points.append(point)
        return real(point, budget)

    o.locate = locate
    return points


def wallis_opaque():
    # Wallis's cubic x**3 - 2x - 5 behind a sign rule with no coefficients.
    return ivt_oracle(SignFunction(polynomial_sign([-5, -2, 0, 1]).eval_sign), 2, 3)


DESCENT_ORACLES = {
    "-22/7": lambda: rational_oracle(F(-22, 7)),
    "5": lambda: rational_oracle(F(5)),
    "3/7": lambda: rational_oracle(F(3, 7)),
    "sqrt2": sqrt2,
    "golden": golden,
    "cbrt5": lambda: nth_root_oracle(3, 5),
    "opaque": wallis_opaque,
    "lub": lambda: lub_oracle(UpperBoundTest(lambda u: u * u * u >= 3, F(0), F(2))),
    "sqrt2+sqrt3": lambda: o_add(sqrt2(), nth_root_oracle(2, 3)),
}
DESCENT_TERM_COUNTS = (1, 3, 12)
DESCENT_BOUNDS = (1, 2, 3, 7, 10, 100, 1000)


def expansion_record(make, count):
    o = make()
    points = recorded(o)
    cf = mediant_expand(o, count, AMPLE)
    convergents = " ".join(str(c) for c in cf.convergents)
    return cf.terms, convergents, cf.exact_terminated, cf.steps, " ".join(str(p) for p in points)


def opaque_zero_rooted():
    """The rationals on a grid that an opaque-sign zero finds as its root."""
    rooted = set()
    for q in (1, 2, 3, 7, 64, 1000):
        for p in range(-40, 41):
            r = F(p, q)
            a = math.floor(r) - 1
            o = ivt_oracle(SignFunction(lambda x, r=r: (x > r) - (x < r)), a, a + 3)
            assert o.root in (None, r)
            if o.root is not None:
                rooted.add(r)
    return sorted(rooted)


# Recorded from the two separate Stern-Brocot walks that the shared descent
# replaced; every locate point is pinned.
DESCENT_EXPANSIONS = {
    '-22/7': {
        1: (
            (-4,),
            '-4',
            False,
            0,
            '-4 -3',
        ),
        3: (
            (-4, 1, 6),
            '-4 -3 -22/7',
            True,
            6,
            '-4 -3 -7/2 -10/3 -13/4 -16/5 -19/6 -22/7',
        ),
        12: (
            (-4, 1, 6),
            '-4 -3 -22/7',
            True,
            6,
            '-4 -3 -7/2 -10/3 -13/4 -16/5 -19/6 -22/7',
        ),
    },
    '5': {
        1: (
            (5,),
            '5',
            True,
            0,
            '5',
        ),
        3: (
            (5,),
            '5',
            True,
            0,
            '5',
        ),
        12: (
            (5,),
            '5',
            True,
            0,
            '5',
        ),
    },
    '3/7': {
        1: (
            (0,),
            '0',
            False,
            0,
            '0 1',
        ),
        3: (
            (0, 2, 3),
            '0 1/2 3/7',
            True,
            4,
            '0 1 1/2 1/3 2/5 3/7',
        ),
        12: (
            (0, 2, 3),
            '0 1/2 3/7',
            True,
            4,
            '0 1 1/2 1/3 2/5 3/7',
        ),
    },
    'sqrt2': {
        1: (
            (1,),
            '1',
            False,
            0,
            '1 2',
        ),
        3: (
            (1, 2, 2),
            '1 3/2 7/5',
            False,
            4,
            '1 2 3/2 4/3 7/5 10/7',
        ),
        12: (
            (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
            (
                '1 3/2 7/5 17/12 41/29 99/70 239/169 577/408 1393/985 3363/2378 8119/5741 '
                '19601/13860'
            ),
            False,
            22,
            (
                '1 2 3/2 4/3 7/5 10/7 17/12 24/17 41/29 58/41 99/70 140/99 239/169 338/239 '
                '577/408 816/577 1393/985 1970/1393 3363/2378 4756/3363 8119/5741 11482/8119 '
                '19601/13860 27720/19601'
            ),
        ),
    },
    'golden': {
        1: (
            (1,),
            '1',
            False,
            0,
            '1 2',
        ),
        3: (
            (1, 1, 1),
            '1 2 3/2',
            False,
            2,
            '1 2 3/2 5/3',
        ),
        12: (
            (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
            '1 2 3/2 5/3 8/5 13/8 21/13 34/21 55/34 89/55 144/89 233/144',
            False,
            11,
            '1 2 3/2 5/3 8/5 13/8 21/13 34/21 55/34 89/55 144/89 233/144 377/233',
        ),
    },
    'cbrt5': {
        1: (
            (1,),
            '1',
            False,
            0,
            '1 2',
        ),
        3: (
            (1, 1, 2),
            '1 2 5/3',
            False,
            3,
            '1 2 3/2 5/3 7/4',
        ),
        12: (
            (1, 1, 2, 2, 4, 3, 3, 1, 5, 1, 1, 4),
            (
                '1 2 5/3 12/7 53/31 171/100 566/331 737/431 4251/2486 4988/2917 9239/5403 '
                '41944/24529'
            ),
            False,
            27,
            (
                '1 2 3/2 5/3 7/4 12/7 17/10 29/17 41/24 53/31 65/38 118/69 171/100 224/131 '
                '395/231 566/331 737/431 1303/762 2040/1193 2777/1624 3514/2055 4251/2486 '
                '4988/2917 9239/5403 14227/8320 23466/13723 32705/19126 41944/24529 51183/29932'
            ),
        ),
    },
    'opaque': {
        1: (
            (2,),
            '2',
            False,
            0,
            '2 3',
        ),
        3: (
            (2, 10, 1),
            '2 21/10 23/11',
            False,
            11,
            '2 3 5/2 7/3 9/4 11/5 13/6 15/7 17/8 19/9 21/10 23/11 44/21',
        ),
        12: (
            (2, 10, 1, 1, 2, 1, 3, 1, 1, 12, 3, 5),
            (
                '2 21/10 23/11 44/21 111/53 155/74 576/275 731/349 1307/624 16415/7837 '
                '50552/24135 269175/128512'
            ),
            False,
            40,
            (
                '2 3 5/2 7/3 9/4 11/5 13/6 15/7 17/8 19/9 21/10 23/11 44/21 67/32 111/53 155/74'
                ' 266/127 421/201 576/275 731/349 1307/624 2038/973 3345/1597 4652/2221 '
                '5959/2845 7266/3469 8573/4093 9880/4717 11187/5341 12494/5965 13801/6589 '
                '15108/7213 16415/7837 17722/8461 34137/16298 50552/24135 66967/31972 '
                '117519/56107 168071/80242 218623/104377 269175/128512 319727/152647'
            ),
        ),
    },
    'lub': {
        1: (
            (1,),
            '1',
            False,
            0,
            '1 2',
        ),
        3: (
            (1, 2, 3),
            '1 3/2 10/7',
            False,
            5,
            '1 2 3/2 4/3 7/5 10/7 13/9',
        ),
        12: (
            (1, 2, 3, 1, 4, 1, 5, 1, 1, 6, 2, 5),
            (
                '1 3/2 10/7 13/9 62/43 75/52 437/303 512/355 949/658 6206/4303 13361/9264 '
                '73011/50623'
            ),
            False,
            31,
            (
                '1 2 3/2 4/3 7/5 10/7 13/9 23/16 36/25 49/34 62/43 75/52 137/95 212/147 287/199'
                ' 362/251 437/303 512/355 949/658 1461/1013 2410/1671 3359/2329 4308/2987 '
                '5257/3645 6206/4303 7155/4961 13361/9264 19567/13567 32928/22831 46289/32095 '
                '59650/41359 73011/50623 86372/59887'
            ),
        ),
    },
    'sqrt2+sqrt3': {
        1: (
            (3,),
            '3',
            False,
            0,
            '2 3 4',
        ),
        3: (
            (3, 6, 1),
            '3 19/6 22/7',
            False,
            7,
            '2 3 4 7/2 10/3 13/4 16/5 19/6 22/7 41/13',
        ),
        12: (
            (3, 6, 1, 5, 7, 1, 1, 4, 1, 38, 43, 1),
            (
                '3 19/6 22/7 129/41 925/294 1054/335 1979/629 8970/2851 10949/3480 '
                '425032/135091 18287325/5812393 18712357/5947484'
            ),
            False,
            108,
            (
                '2 3 4 7/2 10/3 13/4 16/5 19/6 22/7 41/13 63/20 85/27 107/34 129/41 151/48 '
                '280/89 409/130 538/171 667/212 796/253 925/294 1054/335 1979/629 3033/964 '
                '5012/1593 6991/2222 8970/2851 10949/3480 19919/6331 30868/9811 41817/13291 '
                '52766/16771 63715/20251 74664/23731 85613/27211 96562/30691 107511/34171 '
                '118460/37651 129409/41131 140358/44611 151307/48091 162256/51571 173205/55051 '
                '184154/58531 195103/62011 206052/65491 217001/68971 227950/72451 238899/75931 '
                '249848/79411 260797/82891 271746/86371 282695/89851 293644/93331 304593/96811 '
                '315542/100291 326491/103771 337440/107251 348389/110731 359338/114211 '
                '370287/117691 381236/121171 392185/124651 403134/128131 414083/131611 '
                '425032/135091 435981/138571 861013/273662 1286045/408753 1711077/543844 '
                '2136109/678935 2561141/814026 2986173/949117 3411205/1084208 3836237/1219299 '
                '4261269/1354390 4686301/1489481 5111333/1624572 5536365/1759663 '
                '5961397/1894754 6386429/2029845 6811461/2164936 7236493/2300027 '
                '7661525/2435118 8086557/2570209 8511589/2705300 8936621/2840391 '
                '9361653/2975482 9786685/3110573 10211717/3245664 10636749/3380755 '
                '11061781/3515846 11486813/3650937 11911845/3786028 12336877/3921119 '
                '12761909/4056210 13186941/4191301 13611973/4326392 14037005/4461483 '
                '14462037/4596574 14887069/4731665 15312101/4866756 15737133/5001847 '
                '16162165/5136938 16587197/5272029 17012229/5407120 17437261/5542211 '
                '17862293/5677302 18287325/5812393 18712357/5947484 36999682/11759877'
            ),
        ),
    },
}
DESCENT_BEST = {
    '-22/7': '-3 -3 -3 -22/7 -22/7 -22/7 -22/7',
    '5': '5 5 5 5 5 5 5',
    '3/7': '0 1/2 1/2 3/7 3/7 3/7 3/7',
    'sqrt2': '1 3/2 4/3 7/5 7/5 140/99 1393/985',
    'golden': '2 3/2 5/3 8/5 13/8 144/89 1597/987',
    'cbrt5': '2 3/2 5/3 12/7 12/7 171/100 737/431',
    'opaque': '2 2 2 15/7 21/10 155/74 1307/624',
    'lub': '1 3/2 3/2 10/7 13/9 75/52 949/658',
    'sqrt2+sqrt3': '3 3 3 22/7 22/7 129/41 1979/629',
}
DESCENT_ROOTED = (
    '-40 -39 -38 -37 -36 -35 -34 -33 -32 -31 -30 -29 -28 -27 -26 -25 -24 -23 -22 -21 -20 -39/2 '
    '-19 -37/2 -18 -35/2 -17 -33/2 -16 -31/2 -15 -29/2 -14 -27/2 -40/3 -13 -38/3 -25/2 -37/3 '
    '-12 -35/3 -23/2 -34/3 -11 -32/3 -21/2 -31/3 -10 -29/3 -19/2 -28/3 -9 -26/3 -17/2 -25/3 -8 '
    '-23/3 -15/2 -22/3 -7 -20/3 -13/2 -19/3 -6 -40/7 -17/3 -39/7 -11/2 -38/7 -16/3 -37/7 -36/7 '
    '-5 -34/7 -33/7 -14/3 -32/7 -9/2 -31/7 -13/3 -30/7 -29/7 -4 -27/7 -26/7 -11/3 -25/7 -7/2 '
    '-24/7 -10/3 -23/7 -22/7 -3 -20/7 -19/7 -8/3 -18/7 -5/2 -17/7 -7/3 -16/7 -15/7 -2 -13/7 '
    '-12/7 -5/3 -11/7 -3/2 -10/7 -4/3 -9/7 -8/7 -1 -6/7 -5/7 -2/3 -5/8 -39/64 -19/32 -37/64 '
    '-4/7 -9/16 -35/64 -17/32 -33/64 -1/2 -31/64 -15/32 -29/64 -7/16 -3/7 -27/64 -13/32 -25/64 '
    '-3/8 -23/64 -11/32 -1/3 -21/64 -5/16 -19/64 -2/7 -9/32 -17/64 -1/4 -15/64 -7/32 -13/64 '
    '-3/16 -11/64 -5/32 -1/7 -9/64 -1/8 -7/64 -3/32 -5/64 -1/16 -3/64 -1/25 0 1/25 3/64 1/16 '
    '5/64 3/32 7/64 1/8 9/64 1/7 5/32 11/64 3/16 13/64 7/32 15/64 1/4 17/64 9/32 2/7 19/64 5/16'
    ' 21/64 1/3 11/32 23/64 3/8 25/64 13/32 27/64 3/7 7/16 29/64 15/32 31/64 1/2 33/64 17/32 '
    '35/64 9/16 4/7 37/64 19/32 39/64 5/8 2/3 5/7 6/7 1 8/7 9/7 4/3 10/7 3/2 11/7 5/3 12/7 13/7'
    ' 2 15/7 16/7 7/3 17/7 5/2 18/7 8/3 19/7 20/7 3 22/7 23/7 10/3 24/7 7/2 25/7 11/3 26/7 27/7'
    ' 4 29/7 30/7 13/3 31/7 9/2 32/7 14/3 33/7 34/7 5 36/7 37/7 16/3 38/7 11/2 39/7 17/3 40/7 6'
    ' 19/3 13/2 20/3 7 22/3 15/2 23/3 8 25/3 17/2 26/3 9 28/3 19/2 29/3 10 31/3 21/2 32/3 11 '
    '34/3 23/2 35/3 12 37/3 25/2 38/3 13 40/3 27/2 14 29/2 15 31/2 16 33/2 17 35/2 18 37/2 19 '
    '39/2 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40'
)


class TestDescentGolden:
    """The continued fractions, the locate points asked for them, the best
    approximations and the rational roots found by the probe, for a fixed
    set of oracles."""

    @pytest.mark.parametrize("name", list(DESCENT_ORACLES))
    def test_mediant_expand(self, name):
        for count in DESCENT_TERM_COUNTS:
            assert expansion_record(DESCENT_ORACLES[name], count) == DESCENT_EXPANSIONS[name][count], count

    @pytest.mark.parametrize("name", list(DESCENT_ORACLES))
    def test_best_approx(self, name):
        make = DESCENT_ORACLES[name]
        got = " ".join(str(best_approx(make(), n, AMPLE)) for n in DESCENT_BOUNDS)
        assert got == DESCENT_BEST[name]

    def test_opaque_zero_probe(self):
        assert " ".join(str(r) for r in opaque_zero_rooted()) == DESCENT_ROOTED


class TestBestApproxCost:
    """best_approx locates at most ``max_denominator + 3`` points, however
    large the continued-fraction term that overflows the bound."""

    def test_large_term_is_not_walked(self):
        # sqrt(10**10 + 1) = [100000; 200000, ...]
        for n in (10, 1000):
            o = nth_root_oracle(2, 10**10 + 1)
            points = recorded(o)
            assert best_approx(o, n, Budget(10)) == 100000
            assert len(points) <= n + 3

    @staticmethod
    def brute_force(side, floor_times, limit):
        # The nearest p/q over q <= limit, where q offers floor(x*q) and one
        # more. Of a < b, a is nearer iff x < (a + b)/2. A tie keeps the
        # earlier candidate: the smaller denominator, then the smaller
        # numerator.
        best = None
        for den in range(1, limit + 1):
            base = floor_times(den)
            for cand in (F(base, den), F(base + 1, den)):
                if best is None:
                    best = cand
                    continue
                s = side((best + cand) / 2)
                if s != 0 and (s < 0) == (cand < best):
                    best = cand
        return best

    def test_brute_force_over_roots_and_rationals(self):
        def int_root(v, n):
            r = int(round(v ** (1.0 / n)))
            while r**n > v:
                r -= 1
            while (r + 1) ** n <= v:
                r += 1
            return r

        def root_case(n, m):
            # x = m**(1/n); side(c) is the sign of x - c.
            def side(c):
                if c <= 0:
                    return 1
                diff = m * c.denominator**n - c.numerator**n
                return (diff > 0) - (diff < 0)

            return (lambda: nth_root_oracle(n, m)), side, lambda den: int_root(m * den**n, n)

        def rational_case(r):
            return (lambda: rational_oracle(r)), (lambda c: (r > c) - (r < c)), lambda den: math.floor(r * den)

        rng = random.Random(29)
        cases = [root_case(rng.randint(2, 4), rng.randint(2, 10**5)) for _ in range(6)]
        cases += [root_case(2, 90**2 + 1), root_case(3, 7**3 - 1)]
        cases += [rational_case(F(-rng.randint(1, 900), rng.randint(1, 40))) for _ in range(6)]
        cases += [rational_case(F(rng.randint(-900, 900), rng.randint(61, 5000))) for _ in range(6)]
        for make, side, floor_times in cases:
            for limit in range(1, 61):
                o = make()
                points = recorded(o)
                assert best_approx(o, limit, AMPLE) == self.brute_force(side, floor_times, limit), (o.label, limit)
                assert len(points) <= limit + 3


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
