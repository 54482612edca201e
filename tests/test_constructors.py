import itertools
import math
import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import CompareResult, compare, o_mul
from realoracle.axioms import Verdict, check_axioms
from realoracle.constructors import (
    CauchySpec,
    SignFunction,
    UpperBoundTest,
    cauchy_oracle,
    cauchy_tail_enclosures,
    iroot,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.errors import InvalidBounds, InvalidBracket, InvalidFonsi, UnsupportedDomain
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, Placement, QueryResult, is_rooted

AMPLE = Budget(500)


def doubling_sum_spec(limit=F(2)):
    """Partial sums of 1 + 1/2 + 1/4 + ... with an exact modulus."""

    def term(i):
        return 2 - F(1, 2**i)

    def modulus(eps):
        # Terms at indices >= N differ by at most 2**-N; want 2**-N <= eps.
        inv = -(-eps.denominator // eps.numerator)  # ceil(1/eps)
        return max(0, (inv - 1).bit_length())

    return CauchySpec(term=term, modulus=modulus, known_limit=limit)


def cf_terms(q):
    """Continued-fraction terms of a rational, by Euclid."""
    p, d, terms = q.numerator, q.denominator, []
    while d:
        terms.append(p // d)
        p, d = d, p - terms[-1] * d
    return terms


def poly_times(a, b):
    """The product of two polynomials, coefficients low to high."""
    return [sum(a[j] * b[i - j] for j in range(len(a)) if 0 <= i - j < len(b)) for i in range(len(a) + len(b) - 1)]


class TestIroot:
    def test_perfect_powers_and_neighbours(self):
        for base in (0, 1, 2, 3, 10, 37, 1000):
            for n in (1, 2, 3, 5):
                m = base**n
                assert iroot(m, n) == base
                if m > 0:
                    assert iroot(m - 1, n) == base - 1 or base == 1 and iroot(0, n) == 0
                assert iroot(m + 1, n) == base if (base + 1) ** n > m + 1 else base + 1

    def test_bulk_against_isqrt(self):
        import math

        rng = random.Random(3)
        for _ in range(500):
            m = rng.randrange(0, 10**12)
            assert iroot(m, 2) == math.isqrt(m)

    def test_large_indices_and_radicands(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.choice([3, 7, 30, 200, 400])
            m = rng.getrandbits(rng.randint(1, 6000))
            x = iroot(m, n)
            assert x**n <= m < (x + 1) ** n
        for n in (3, 200):
            for base in (2, 3**100, 2**500 + 1):
                assert [iroot(base**n + d, n) for d in (-1, 0, 1)] == [base - 1, base, base]

    def test_neighbours_of_exact_powers_at_high_indices(self):
        # Newton from an overshooting seed must stop on the floor itself,
        # on an exact power and on each side of it.
        for n, base in ((300, 3**40), (300, 2**64 + 1), (2000, 12345), (2000, 2)):
            m = base**n
            assert [iroot(m + d, n) for d in (-1, 0, 1)] == [base - 1, base, base]

    def test_below_two_to_the_index_the_root_is_one(self):
        # No power of the index is formed: 3**(10**6) alone has 1.6M bits.
        assert iroot(2, 10**6) == 1 and iroot(3, 10**6) == 1

    def test_small_arguments_by_brute_force(self):
        for n in range(1, 13):
            for m in range(0, 5000):
                x = iroot(m, n)
                assert x**n <= m < (x + 1) ** n, (m, n)


class TestRationalOracle:
    def test_rule_examples(self):
        o = rational_oracle(F(1, 2))
        assert o.decide(interval_make(0, 1), Budget(0)) is QueryResult.YES
        assert o.decide(RInterval(F(1, 2), F(1, 2)), Budget(0)) is QueryResult.YES
        assert o.decide(interval_make(F(2, 3), 1), Budget(0)) is QueryResult.NO

    def test_root_reported(self):
        assert is_rooted(rational_oracle(F(5, 7))) == F(5, 7)


class TestNthRootOracle:
    def test_endpoint_power_rule(self):
        sq2 = nth_root_oracle(2, 2)
        assert sq2.decide(interval_make(1, 2), Budget(0)) is QueryResult.YES

    def test_perfect_square_rooted(self):
        assert is_rooted(nth_root_oracle(2, F(9, 4))) == F(3, 2)

    def test_cube_interval_above_the_root(self):
        # (4/3)**3 = 64/27 > 2: the whole interval lies above the cube root.
        o = nth_root_oracle(3, 2)
        assert o.decide(interval_make(F(4, 3), F(3, 2)), Budget(0)) is QueryResult.NO

    def test_irrational_stays_unrooted(self):
        assert is_rooted(nth_root_oracle(2, 2)) is None
        assert is_rooted(nth_root_oracle(3, 2)) is None

    def test_rational_root_of_non_dyadic_square(self):
        assert is_rooted(nth_root_oracle(2, F(4, 9))) == F(2, 3)

    def test_non_positive_queries_resolved(self):
        sq2 = nth_root_oracle(2, 2)
        assert sq2.decide(interval_make(-2, -1), Budget(0)) is QueryResult.NO
        assert sq2.decide(interval_make(-1, 3), Budget(0)) is QueryResult.YES
        assert sq2.decide(interval_make(-1, 1), Budget(0)) is QueryResult.NO

    def test_domain_errors(self):
        with pytest.raises(UnsupportedDomain):
            nth_root_oracle(2, -1)
        with pytest.raises(UnsupportedDomain):
            nth_root_oracle(2, 0)
        with pytest.raises(UnsupportedDomain):
            nth_root_oracle(0, 2)

    def test_refine_follows_midpoint_policy(self):
        got = nth_root_oracle(2, 2).refine(F(1, 4), AMPLE)
        assert got == interval_make(F(5, 4), F(3, 2))

    def test_small_radicand_bracket(self):
        o = nth_root_oracle(2, F(1, 2))
        got = o.refine(F(1, 1024), AMPLE)
        # Contains the actual square root of 1/2: check by squaring endpoints.
        assert got.lo**2 <= F(1, 2) <= got.hi**2

    @pytest.mark.parametrize("n,q", [(2, F(2)), (3, F(2)), (2, F(1, 2)), (5, F(7, 3))])
    def test_nfold_product_encloses_radicand(self, n, q):
        o = nth_root_oracle(n, q)
        power = o
        for _ in range(n - 1):
            power = o_mul(power, o)
        got = power.refine(F(1, 10**20), Budget(400))
        assert got is not None and got.lo <= q <= got.hi


class TestIvtOracle:
    def test_sign_change_yes(self):
        o = ivt_oracle(polynomial_sign([-2, 0, 1]), 0, 2)
        assert o.decide(interval_make(1, 2), Budget(0)) is QueryResult.YES

    def test_locate_against_midpoint(self):
        o = ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2)
        assert o.locate(F(3, 2), Budget(0)) is Placement.GREATER

    def test_rational_root_discovered(self):
        o = ivt_oracle(polynomial_sign([F(-1, 3), 1]), 0, 1)
        assert is_rooted(o) == F(1, 3)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracket):
            ivt_oracle(polynomial_sign([1, 0, 1]), -1, 1)
        with pytest.raises(InvalidBracket):
            ivt_oracle(polynomial_sign([0, 1]), 2, 1)

    def test_endpoint_zero_is_root(self):
        o = ivt_oracle(polynomial_sign([0, 1]), 0, 1)
        assert is_rooted(o) == 0

    def test_refined_intervals_keep_the_sign_change(self):
        sign = polynomial_sign([-1, -1, 1])
        o = ivt_oracle(sign, 1, 2)
        for iv in itertools.islice(o.refiner(), 40):
            assert sign.eval_sign(iv.lo) * sign.eval_sign(iv.hi) <= 0

    def test_polynomial_sign_matches_rational_evaluation(self):
        rng = random.Random(6)
        for _ in range(300):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
            root = F(rng.randint(-20, 20), rng.randint(1, 8))
            coeffs = [-root * coeffs[0]] + [a - root * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
            sign = polynomial_sign(coeffs + [0] * rng.randint(0, 2))
            for x in (root, F(rng.randint(-50, 50), rng.randint(1, 2**rng.randint(0, 80)))):
                value = sum(c * x**i for i, c in enumerate(coeffs))
                assert sign.eval_sign(x) == (value > 0) - (value < 0), (coeffs, x)
        assert polynomial_sign([0, 0]).eval_sign(F(3, 7)) == 0

    def test_queries_outside_bracket(self):
        o = ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2)
        assert o.decide(interval_make(3, 4), Budget(0)) is QueryResult.NO
        assert o.decide(interval_make(0, 4), Budget(0)) is QueryResult.YES


class TestCauchyOracle:
    def test_known_limit_singleton(self):
        o = cauchy_oracle(doubling_sum_spec())
        assert o.decide(RInterval(F(2), F(2)), Budget(0)) is QueryResult.YES

    def test_without_limit_singleton_exhausts(self):
        o = cauchy_oracle(doubling_sum_spec(limit=None))
        for budget in (1, 10, 100, 1000):
            assert o.decide(RInterval(F(2), F(2)), Budget(budget)) is QueryResult.EXHAUSTED

    def test_constant_sequence(self):
        spec = CauchySpec(term=lambda i: F(1, 3), modulus=lambda eps: 0, known_limit=F(1, 3))
        o = cauchy_oracle(spec)
        assert o.decide(interval_make(0, 1), Budget(0)) is QueryResult.YES

    def test_tail_enclosures_contain_later_terms(self):
        spec = doubling_sum_spec()
        for level, enclosure in zip(range(12), cauchy_tail_enclosures(spec)):
            eps = F(1, 2**level)
            start = spec.modulus(eps)
            for i in range(start, start + 6):
                assert enclosure.contains(spec.term(i))

    def test_wrong_modulus_raises(self):
        # The sequence diverges while the modulus promises convergence, so
        # successive tail enclosures separate.
        spec = CauchySpec(term=lambda i: F(i), modulus=lambda eps: eps.denominator, known_limit=None)
        o = cauchy_oracle(spec)
        with pytest.raises(InvalidFonsi):
            o.refine(F(1, 8), AMPLE)


class TestLubOracle:
    def ge_one(self):
        return UpperBoundTest(is_ub=lambda u: u >= 1, seed_member=F(0), seed_bound=F(2))

    def test_yes_rule(self):
        o = lub_oracle(self.ge_one())
        assert o.decide(interval_make(0, 2), Budget(0)) is QueryResult.YES

    def test_no_between_upper_bounds(self):
        o = lub_oracle(self.ge_one())
        assert o.decide(interval_make(2, 3), AMPLE) is QueryResult.NO

    def test_above_failing_bound_is_no(self):
        o = lub_oracle(self.ge_one())
        assert o.decide(interval_make(-1, F(1, 2)), Budget(0)) is QueryResult.NO

    def test_seed_coincidence_roots(self):
        t = UpperBoundTest(is_ub=lambda u: u >= 1, seed_member=F(1), seed_bound=F(2))
        o = lub_oracle(t)
        assert is_rooted(o) == 1
        assert o.decide(RInterval(F(1), F(1)), Budget(0)) is QueryResult.YES

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            lub_oracle(UpperBoundTest(is_ub=lambda u: u >= 1, seed_member=F(0), seed_bound=F(1, 2)))

    def sqrt2_test(self):
        return UpperBoundTest(
            is_ub=lambda u: u > 0 and u.numerator**2 >= 2 * u.denominator**2,
            seed_member=F(1),
            seed_bound=F(2),
        )

    def test_refines_onto_the_square_root(self):
        o = lub_oracle(self.sqrt2_test())
        got = o.refine(F(1, 10**6), AMPLE)
        assert got is not None and got.lo**2 <= 2 <= got.hi**2
        assert compare(o, nth_root_oracle(2, 2), Budget(200)) is CompareResult.UNDECIDED

    def test_ordering_against_sampled_rationals(self):
        o = lub_oracle(self.sqrt2_test())
        rng = random.Random(11)
        for _ in range(40):
            q = F(rng.randint(1, 40), rng.randint(1, 20))
            outcome = compare(o, rational_oracle(q), Budget(100))
            if self.sqrt2_test().is_ub(q):
                assert outcome is not CompareResult.GREATER
            else:
                assert outcome is not CompareResult.LESS


class TestAxiomSuiteOnConstructors:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: rational_oracle(F(22, 7)),
            lambda: nth_root_oracle(2, 2),
            lambda: nth_root_oracle(3, 2),
            lambda: ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2),
            lambda: cauchy_oracle(doubling_sum_spec()),
            lambda: lub_oracle(
                UpperBoundTest(
                    is_ub=lambda u: u > 0 and u.numerator**2 >= 2 * u.denominator**2,
                    seed_member=F(1),
                    seed_bound=F(2),
                )
            ),
        ],
        ids=["rational", "sqrt2", "cbrt2", "golden", "cauchy", "lub"],
    )
    def test_no_falsifications(self, make):
        reports = check_axioms(make(), sampler_seed=7, samples=120, budget=Budget(64))
        assert all(r.verdict is not Verdict.FALSIFIED for r in reports), [str(r) for r in reports]


class TestLubSeedOrder:
    def test_member_above_bound_rejected(self):
        # Only a test that is not monotone can fail at a point above one
        # where it holds; bisecting such seeds would misorder endpoints.
        with pytest.raises(InvalidBounds):
            lub_oracle(UpperBoundTest(is_ub=lambda u: u == 1, seed_member=F(2), seed_bound=F(1)))

    def test_member_above_bound_rejected_before_it_is_tested(self):
        # A monotone test holds at a member above the bound too; rooting
        # that member would make 2 the lub of a set whose lub is 1.
        asked = []

        def is_ub(u):
            asked.append(u)
            return u >= 1

        with pytest.raises(InvalidBounds, match="seed member 2 lies above the seed bound 1"):
            lub_oracle(UpperBoundTest(is_ub=is_ub, seed_member=F(2), seed_bound=F(1)))
        assert asked == [1]


class TestIvtZeroCount:
    def test_bracket_with_three_zeros_rejected(self):
        with pytest.raises(InvalidBracket, match="3 distinct zeros"):
            ivt_oracle(polynomial_sign([0, 1, 0, -1]), -2, 2)

    def test_two_zeros_one_a_double_root_rejected(self):
        # x**2 * (x - 1) changes sign only at 1, yet 0 is a zero too.
        with pytest.raises(InvalidBracket, match="2 distinct zeros"):
            ivt_oracle(polynomial_sign([0, 0, -1, 1]), -1, 2)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidBracket, match="infinitely many"):
            ivt_oracle(polynomial_sign([0]), 0, 1)

    def test_one_zero_accepted_whatever_its_multiplicity(self):
        assert ivt_oracle(polynomial_sign([-1, 3, -3, 1]), 0, 2).root == 1  # (x - 1)**3
        assert ivt_oracle(polynomial_sign([-1, 0, 1]), 1, 2).root == 1  # zero at an end
        assert ivt_oracle(polynomial_sign([-1, 0, 1]), 0, 1).root == 1

    def test_sturm_count_matches_the_known_zeros(self):
        rng = random.Random(5)
        for _ in range(200):
            zeros = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            coeffs = [F(rng.choice([1, -2, 3]))]
            for z in zeros:  # multiply by (x - z), low to high
                coeffs = [-z * coeffs[0]] + [a - z * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
            if rng.random() < 0.5:  # times x**2 + 1, which has no real zero
                coeffs = [a + b for a, b in itertools.zip_longest(coeffs + [0, 0], [0, 0] + coeffs, fillvalue=0)]
            lo = F(rng.randint(-10, 9), rng.randint(1, 3))
            hi = lo + F(rng.randint(1, 12), rng.randint(1, 3))
            inside = len({z for z in zeros if lo <= z <= hi})
            sign = polynomial_sign(coeffs)
            if inside == 1 and sign.eval_sign(lo) * sign.eval_sign(hi) <= 0:
                ivt_oracle(sign, lo, hi)
            elif inside != 1:
                with pytest.raises(InvalidBracket):
                    ivt_oracle(sign, lo, hi)

    def test_count_matches_factors_with_multiplicity_and_quadratics(self):
        rng = random.Random(15)
        primes = (2, 3, 5, 7, 11, 13)
        for _ in range(400):
            rational = {F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 5))) for _ in range(rng.randint(0, 3))}
            squares = set(rng.sample(primes, rng.randint(0, 2)))  # x**2 - m: zeros +-sqrt(m)
            factors = [[-z, 1] for z in rational for _ in range(rng.choice((1, 1, 2, 3)))]
            factors += [[-m, 0, 1] for m in squares]
            factors += [[rng.randint(1, 9), rng.randint(-2, 2), 1] for _ in range(rng.randint(0, 1))]  # no real zero
            coeffs = [F(rng.choice((1, -1))) * rng.choice((1, 6, F(2, 3), F(-35, 4)))]  # not primitive, not integral
            for factor in factors:
                coeffs = poly_times(coeffs, factor)
            if rational and rng.random() < 0.3:  # a zero at an end
                lo = rng.choice(sorted(rational))
                hi = lo + F(rng.randint(1, 8), rng.choice((1, 2)))
            else:
                lo = F(rng.randint(-14, 13), rng.choice((1, 2, 3)))
                hi = lo + F(rng.randint(1, 14), rng.choice((1, 2, 3)))
            inside = sum(lo <= z <= hi for z in rational)
            for m in squares:  # sqrt(m) is irrational, so no end is a zero
                inside += (hi > 0 and hi * hi > m and (lo < 0 or lo * lo < m))
                inside += (lo < 0 and lo * lo > m and (hi > 0 or hi * hi < m))
            ends = [sum(c * x**i for i, c in enumerate(coeffs)) for x in (lo, hi)]
            sign = polynomial_sign(coeffs)
            if ends[0] * ends[1] > 0:
                with pytest.raises(InvalidBracket, match="no sign change"):
                    ivt_oracle(sign, lo, hi)
            elif inside == 1:
                o = ivt_oracle(sign, lo, hi)
                if 0 in ends:
                    assert o.root == (lo if ends[0] == 0 else hi)
            else:
                with pytest.raises(InvalidBracket, match=f"has {inside} distinct zeros"):
                    ivt_oracle(sign, lo, hi)

    def test_opaque_sign_function_is_the_callers_assertion(self):
        poly = polynomial_sign([0, 1, 0, -1])
        assert SignFunction(poly.eval_sign).coeffs is None
        o = ivt_oracle(SignFunction(poly.eval_sign), -2, 2)
        assert o.refine(F(1, 2**10), AMPLE) is not None


class TestRationalZeroRooting:
    """A polynomial zero is rooted iff it is rational, however long its
    Stern-Brocot path from floor(lo) (the sum of the continued-fraction
    terms of zero - floor(lo))."""

    def test_every_rational_zero_is_rooted(self):
        rng = random.Random(16)
        cases = [(F(1, 3), 0, 1, [1], 1), (F(1, 64), 0, 1, [1], 1)]  # 3 and 64 mediants
        for _ in range(400):
            zero = F(rng.randint(-60, 60), rng.choice((1, 2, 3, 7, 12, 33, 64, 100)))
            lo = zero - F(rng.randint(1, 60), rng.choice((1, 2, 3)))
            hi = zero + F(rng.randint(1, 60), rng.choice((1, 2, 3)))
            other = rng.choice(([1, 0, 1], [2, rng.randint(-2, 2), 1], [1]))  # no real zero
            cases.append((zero, lo, hi, other, rng.choice((1, 3))))
        reach = {True: 0, False: 0}
        for zero, lo, hi, other, multiplicity in cases:
            coeffs = [F(rng.choice((1, -2, 5, F(3, 7))))]
            for factor in [[-zero, 1]] * multiplicity + [other]:
                coeffs = poly_times(coeffs, factor)
            short = sum(cf_terms(zero - math.floor(lo))) <= 32
            reach[short] += 1
            assert ivt_oracle(polynomial_sign(coeffs), lo, hi).root == zero, (coeffs, lo, hi, short)
        assert min(reach.values()) > 50

    def test_a_root_is_a_zero_of_the_sign_whatever_the_coeffs(self):
        # ``coeffs`` nudged away from ``eval_sign`` may cost a root, never
        # give a wrong one: only the sign decides.
        rng = random.Random(22)
        accepted = rooted = 0
        for _ in range(600):
            if rng.random() < 0.5:
                near = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7)))
                truth = poly_times([-near, 1], [rng.randint(2, 9), rng.randint(-2, 2), rng.choice((1, 2))])
            else:  # x**2 - m, an irrational zero near isqrt(m)
                m = rng.choice((2, 3, 5, 7, 11))
                near, truth = F(math.isqrt(m)), [-m, 0, 1]
            claim = list(truth)
            claim[rng.randrange(len(claim))] += F(rng.choice((-1, 1)), rng.choice((1, 3, 5, 100)))
            lo = near - F(rng.randint(0, 6), rng.choice((1, 2, 3)))
            hi = near + F(rng.randint(1, 6), rng.choice((1, 2, 3)))
            sign = polynomial_sign(truth).eval_sign
            try:
                o = ivt_oracle(SignFunction(sign, "nudged", tuple(claim)), lo, hi)
            except InvalidBracket:
                continue
            accepted += 1
            if o.root is not None:
                rooted += 1
                assert sign(o.root) == 0, (truth, claim, lo, hi, o.root)
        assert accepted > 300 and rooted > 100

    def test_irrational_zeros_stay_unrooted(self):
        for coeffs, a, b in (([-2, 0, 1], 1, 2), ([-2, 0, 9], 0, 1), ([-1, -1, 1], 1, 2), ([-7, 0, 0, 64], 0, 1)):
            assert ivt_oracle(polynomial_sign(coeffs), a, b).root is None


class TestOneExactTestPerLeaf:
    """decide, locate and bisection of an exact leaf all come from one
    placement test; each is checked against an independent definition."""

    def intervals(self, rng, lo, hi, count=300):
        points = [F(rng.randint(lo * 64, hi * 64), 64) for _ in range(count)]
        points += [F(rng.randint(lo * 1000, hi * 1000), rng.randint(1, 1000)) for _ in range(count)]
        for _ in range(count):
            a, b = sorted(rng.sample(points, 2))
            yield interval_make(a, b)
            yield RInterval(a, a)

    def test_nth_root_decide_matches_integer_powers(self):
        rng = random.Random(41)
        for n in (1, 2, 3, 5):
            for q in (F(2), F(1, 3), F(27, 8), F(9), F(10, 7)):
                o = nth_root_oracle(n, q)
                for iv in self.intervals(rng, -1, 4, 60):
                    at_most_hi = iv.hi > 0 and iv.hi**n >= q
                    at_least_lo = iv.lo <= 0 or iv.lo**n <= q
                    want = QueryResult.YES if at_most_hi and at_least_lo else QueryResult.NO
                    assert o.decide(iv, Budget(0)) is want, (n, q, iv)

    def test_ivt_decide_matches_sign_products(self):
        rng = random.Random(42)
        cases = [([-2, 0, 1], 0, 3), ([2, 0, 0, -1], 1, 2), ([-1, 3, -3, 1], 0, 2), ([F(-1, 64), 1], 0, 1)]
        for coeffs, a, b in cases:
            sign = polynomial_sign(coeffs)
            o = ivt_oracle(sign, a, b)
            for iv in self.intervals(rng, -1, 4, 80):
                x, y = max(iv.lo, F(a)), min(iv.hi, F(b))
                straddles = x <= y and sign.eval_sign(x) * sign.eval_sign(y) <= 0
                want = QueryResult.YES if straddles else QueryResult.NO
                assert o.decide(iv, Budget(0)) is want, (coeffs, iv)

    def test_lub_decide_matches_the_upper_bound_test(self):
        rng = random.Random(43)
        tests = [
            UpperBoundTest(lambda u: u > 0 and u.numerator**2 >= 2 * u.denominator**2, F(1), F(2)),
            UpperBoundTest(lambda u: u >= F(5, 3), F(-1), F(3)),
        ]
        for test in tests:
            o = lub_oracle(test)
            for iv in self.intervals(rng, -1, 4, 80):
                if not test.is_ub(iv.hi):
                    want = QueryResult.NO
                elif not test.is_ub(iv.lo):
                    want = QueryResult.YES
                else:
                    want = QueryResult.EXHAUSTED
                assert o.decide(iv, Budget(0)) is want, iv
            assert o.enclosure is None

    def sqrt2_lub(self):
        return lub_oracle(UpperBoundTest(lambda u: u > 0 and u.numerator**2 >= 2 * u.denominator**2, F(1), F(2)))

    def test_lub_locates_points_below_the_sup_without_budget(self):
        o = self.sqrt2_lub()
        for p in (F(-5), F(0), F(1), F(7, 5), F(141421, 100000)):
            assert o.locate(p, Budget(0)) is Placement.GREATER
        assert o.enclosure is None

    def test_lub_locate_at_or_above_the_sup_uses_the_stream(self):
        o = self.sqrt2_lub()
        assert o.locate(F(3, 2), Budget(0)) is Placement.EXHAUSTED
        assert o.locate(F(3, 2), AMPLE) is Placement.LESS
        assert o.enclosure is not None
        at_sup = lub_oracle(UpperBoundTest(lambda u: u >= 1, F(0), F(2)))
        assert at_sup.locate(F(1), Budget(40)) is Placement.EXHAUSTED
        assert at_sup.enclosure.hi == 1

    @staticmethod
    def bisection(lo, hi, above):
        # above(mid): True, False, or None when mid is the number.
        while True:
            yield lo, hi
            mid = (lo + hi) / 2
            where = above(mid)
            if where is None:
                lo = hi = mid
            elif where:
                lo = mid
            else:
                hi = mid

    def first_intervals(self, oracle, count=200):
        return [(iv.lo, iv.hi) for iv in itertools.islice(oracle.refiner(), count)]

    def test_ivt_refiner_is_plain_bisection(self):
        # The zero 1/2**20 of an opaque sign is too deep for the construction-time
        # probe, so the bisection lands on it at its twentieth midpoint.
        grid_point = SignFunction(polynomial_sign([F(-1, 2**20), 1]).eval_sign, "x - 1/2**20")
        cases = ((polynomial_sign([-2, 0, 0, 1]), 1, 2), (polynomial_sign([2, 0, 0, -1]), 1, 2), (grid_point, 0, 1))
        for sign, a, b in cases:
            o = ivt_oracle(sign, a, b)
            assert o.root is None
            start = sign.eval_sign(F(a))
            want = self.bisection(F(a), F(b), lambda m: None if not sign.eval_sign(m) else sign.eval_sign(m) == start)
            assert self.first_intervals(o) == list(itertools.islice(want, 200)), sign.description

    def test_lub_refiner_is_plain_bisection(self):
        test = UpperBoundTest(lambda u: u**3 >= 3, F(-2), F(5))
        want = self.bisection(F(-2), F(5), lambda m: not test.is_ub(m))
        assert self.first_intervals(lub_oracle(test)) == list(itertools.islice(want, 200))
