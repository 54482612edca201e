"""Precision-directed refinement: a refine target pushed down the nodes.

A targeted pull lands a leaf where one-element pulls would, so results are
the same intervals for leaves; it is charged the furthest it took a leaf,
so a budget never takes a leaf further than one-element pulls would.
"""

import itertools
import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import o_add, o_mul, o_recip, o_sub
from realoracle.constructors import (
    CauchySpec,
    SignFunction,
    UpperBoundTest,
    cauchy_oracle,
    cauchy_tail_enclosures,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.functions import apply, poly_extension, recip_extension
from realoracle.intervals import RInterval, interval_make
from realoracle.errors import InvalidBracket, InvalidFonsi
from realoracle.oracle import Budget, FonsiSource, Oracle, mag_bits, oracle_from_fonsi, precision, target_bits
from realoracle.refine import to_decimal


def nth(stream, k):
    """The k-th element (from 0) of a refiner stream."""
    return next(itertools.islice(stream, k, None))


def three_leaves():
    return o_add(o_mul(nth_root_oracle(2, 2), nth_root_oracle(3, 2)), nth_root_oracle(2, 3))


class TestHelpers:
    @pytest.mark.parametrize(
        "width,bits",
        [(F(1), 0), (F(1, 2), 1), (F(1, 3), 2), (F(3, 8), 2), (F(4), -2), (F(5), -2), (F(1, 10**6), 20)],
    )
    def test_target_bits_is_the_least_sufficient_power(self, width, bits):
        assert target_bits(width) == bits
        assert F(2) ** -bits <= width < F(2) ** -(bits - 1)

    def test_precision_and_magnitude(self):
        assert precision(interval_make(F(5, 4), F(3, 2))) == 2
        assert precision(interval_make(0, F(1, 3))) == 1
        assert precision(interval_make(1, 1)) == float("inf")
        assert mag_bits(interval_make(F(-3), F(1, 2))) == 2
        assert mag_bits(interval_make(F(1, 8), F(1, 4))) == -2
        assert mag_bits(interval_make(0, 0)) == 0


class TestLeafSeek:
    def test_seek_lands_on_the_streams_interval(self):
        o = nth_root_oracle(5, F(7, 3))
        got = o.refine(F(1, 2**3000), Budget(10**4))
        assert got == nth(nth_root_oracle(5, F(7, 3)).refiner(), 3000)

    @pytest.mark.parametrize("n,q", [(2, F(2)), (3, F(400, 7)), (5, F(7, 3))])
    def test_one_bit_steps_follow_the_definition(self, n, q):
        for k, got in enumerate(itertools.islice(nth_root_oracle(n, q).refiner(), 300)):
            s = got.lo * 2**k
            assert got.width == F(1, 2**k) and s.denominator == 1
            assert s**n <= q * 2 ** (n * k) < (s + 1) ** n

    def test_one_bit_steps_continue_after_a_seek(self):
        o = nth_root_oracle(3, F(5, 2))
        o.refine(F(1, 2**40), Budget(100))
        after = list(itertools.islice(o.refiner(), 3))
        assert after == list(itertools.islice(nth_root_oracle(3, F(5, 2)).refiner(), 41, 44))

    def test_budget_bounds_a_seek(self):
        o = nth_root_oracle(2, 2)
        assert o.refine(F(1, 2 ** (10**6)), Budget(10)) is None
        # Ten pulls, as without a target: shift 9, never a million bits.
        assert o.enclosure == nth(nth_root_oracle(2, 2).refiner(), 9)
        assert o.enclosure.hi.denominator.bit_length() < 16

    def test_element_streams_take_the_elements_one_pulls_would(self):
        def golden():
            return ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2)

        assert golden().refine(F(1, 2**50), Budget(60)) == nth(golden().refiner(), 50)
        o = lub_oracle(UpperBoundTest(lambda u: u * u >= 2, F(1), F(2)))
        assert o.refine(F(1, 2**50), Budget(20)) is None
        assert o.enclosure == nth(lub_oracle(UpperBoundTest(lambda u: u * u >= 2, F(1), F(2))).refiner(), 19)


class TestSquareRootRemainder:
    """One-bit square-root steps read a carried remainder; a seek re-derives
    it. Deep pulls must still be the intervals of the definition."""

    @pytest.mark.parametrize("q", [F(2), F(7, 3), F(10**6 + 1, 999)])
    def test_deep_one_bit_steps_equal_a_seek(self, q):
        one_bit = nth(nth_root_oracle(2, q).refiner(), 20000)
        assert one_bit == nth_root_oracle(2, q).refine(F(1, 2**20000), Budget(10**5))
        assert one_bit.width == F(1, 2**20000)

    @pytest.mark.parametrize("q", [F(2), F(5, 2), F(3, 1024)])
    def test_one_bit_steps_continue_after_a_seek(self, q):
        o = nth_root_oracle(2, q)
        o.refine(F(1, 2**500), Budget(1000))
        after = list(itertools.islice(o.refiner(), 200))
        assert after == list(itertools.islice(nth_root_oracle(2, q).refiner(), 501, 701))

    @pytest.mark.parametrize("q", [F(2), F(7, 3), F(1, 10**9 + 7)])
    def test_one_bit_steps_follow_the_definition_deep(self, q):
        num, den = q.numerator, q.denominator
        for k, got in enumerate(itertools.islice(nth_root_oracle(2, q).refiner(), 2001)):
            assert got.lo.denominator <= 2**k and got.hi == got.lo + F(1, 2**k)
            s = got.lo.numerator << (k - got.lo.denominator.bit_length() + 1)
            # s**2 <= q * 4**k < (s + 1)**2, in integers.
            assert s * s * den <= num << 2 * k < (s + 1) ** 2 * den


def first_within(oracle, width):
    """The first refiner element of width at most ``width``."""
    return next(got for got in oracle.refiner() if got.width <= width)


def counted(sign, coeffs):
    """``sign`` with the given coefficients, and a list that counts its calls."""
    calls = []

    def eval_sign(x):
        calls.append(x)
        return sign(x)

    return SignFunction(eval_sign, "counted", tuple(F(c) for c in coeffs)), calls


class TestZeroSeek:
    """A target pull on a polynomial zero proposes a deep cell by Newton and
    takes it only when two sign tests certify it: the result is the cell
    that one-bit bisection reaches."""

    AMPLE = Budget(10**5)

    def random_zeros(self, count):
        rng = random.Random(77)
        while count:
            coeffs = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(rng.randint(3, 5))]
            lo = F(rng.randint(-6, 5), rng.choice((1, 2, 5)))
            hi = lo + rng.choice((F(1), F(3), F(1, 5), F(7, 3)))
            sign = polynomial_sign(coeffs + [rng.choice((1, -1, 2))])
            try:
                o = ivt_oracle(sign, lo, hi)
            except InvalidBracket:
                continue
            if o.root is None:
                count -= 1
                yield lambda: ivt_oracle(sign, lo, hi)

    def test_refine_lands_on_the_bisection_cell(self):
        width = F(1, 2**2000)
        for make in self.random_zeros(8):
            assert make().refine(width, self.AMPLE) == first_within(make(), width)

    def test_a_grid_point_zero_ends_as_bisection_ends(self):
        def make():
            return ivt_oracle(SignFunction(polynomial_sign([F(-1, 2**20), 1]).eval_sign), 0, 1)

        # Too deep for the probe of an opaque sign; bisection meets it at depth 20.
        assert make().root is None
        o = make()
        assert o.refine(F(1, 2**2000), self.AMPLE) == RInterval(F(1, 2**20), F(1, 2**20)) == nth(make().refiner(), 20)
        assert o.root == F(1, 2**20)

    def test_a_multiple_zero_agrees_with_bisection(self):
        def make():  # (x**2 - 2)**3
            return ivt_oracle(polynomial_sign([-8, 0, 12, 0, -6, 0, 1]), 1, 2)

        assert make().refine(F(1, 2**1000), self.AMPLE) == nth(make().refiner(), 1000)

    @pytest.mark.parametrize("lo,hi", [(1, 2), (0, 3), (F(8, 5), F(9, 5))])
    def test_budget_bounds_a_seek(self, lo, hi):
        def make():  # the golden ratio
            return ivt_oracle(polynomial_sign([-1, -1, 1]), lo, hi)

        o = make()
        assert o.refine(F(1, 2 ** (10**6)), Budget(10)) is None
        assert o.enclosure == nth(make().refiner(), 9)

    @pytest.mark.parametrize("coeffs", [[-3, 0, 1], [F(-3, 2), 0, 1]])
    def test_only_the_sign_tests_decide(self, coeffs):
        # Newton follows the zero of ``coeffs`` (sqrt 3 above sqrt 2, or
        # sqrt(3/2) below it); the sign function's zero is sqrt 2.
        sign, calls = counted(polynomial_sign([-2, 0, 1]).eval_sign, coeffs)
        o = ivt_oracle(sign, 1, 2)
        built = len(calls)
        for bits in (8, 40, 200, 600):
            assert o.refine(F(1, 2**bits), self.AMPLE) == nth(ivt_oracle(polynomial_sign([-2, 0, 1]), 1, 2).refiner(), bits)
        assert len(calls) - built <= 3 * 600 + 10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ivt_oracle(SignFunction(polynomial_sign([-1, -1, 1]).eval_sign), 1, 2),
            lambda: lub_oracle(UpperBoundTest(lambda u: u * u >= 2, F(1), F(2))),
        ],
        ids=["opaque_zero", "lub"],
    )
    def test_element_streams_step_one_bit_per_callback(self, make):
        assert make().refine(F(1, 2**50), Budget(60)) == nth(make().refiner(), 50)
        o = make()
        assert o.refine(F(1, 2**50), Budget(20)) is None
        assert o.enclosure == nth(make().refiner(), 19)


class TestZeroBuildCost:
    """Building a polynomial zero decides its rationality by the
    rational-root theorem, with a few sign calls instead of a probe."""

    @staticmethod
    def irrational_zeros(count):
        rng = random.Random(2024)
        while count:
            degree = rng.randint(2, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, -1)) * rng.randint(1, 9)]
            k = rng.randint(-4, 4)
            values = [sum(c * x**i for i, c in enumerate(coeffs)) for x in (F(k), F(k + 1))]
            if values[0] * values[1] >= 0:
                continue
            # A rational zero p/q in k:k+1 has q dividing the leading coefficient.
            candidates = [F(p, q) for q in range(1, 10) for p in range(k * q, (k + 1) * q + 1)]
            if any(sum(c * x**i for i, c in enumerate(coeffs)) == 0 for x in candidates):
                continue
            try:
                ivt_oracle(polynomial_sign(coeffs), k, k + 1)
            except InvalidBracket:
                continue
            count -= 1
            yield coeffs, k

    def test_irrational_zero_builds_with_few_sign_calls(self):
        for coeffs, k in self.irrational_zeros(200):
            sign, calls = counted(polynomial_sign(coeffs).eval_sign, coeffs)
            o = ivt_oracle(sign, k, k + 1)
            assert o.root is None
            assert len(calls) <= 10, (coeffs, k, len(calls))

    @staticmethod
    def rational_zeros(count):
        # (x - zero) times a quadratic with no real zero, brackets up to 60
        # wide: many Stern-Brocot paths from floor(lo) are longer than 32.
        rng = random.Random(21)
        for _ in range(count):
            zero = F(rng.randint(-500, 500), rng.randint(1, 60))
            a, b, c = rng.randint(2, 9), rng.randint(-2, 2), rng.choice((1, 2, 3))
            scale = rng.choice((1, -2, F(3, 7)))
            coeffs = [scale * k for k in (-zero * a, a - zero * b, b - zero * c, c)]
            lo = zero - F(rng.randint(1, 60), rng.choice((1, 2, 3, 7)))
            hi = zero + F(rng.randint(1, 60), rng.choice((1, 2, 3, 7)))
            yield coeffs, zero, lo, hi

    def test_rational_zero_builds_with_few_sign_calls(self):
        for coeffs, zero, lo, hi in self.rational_zeros(300):
            sign, calls = counted(polynomial_sign(coeffs).eval_sign, coeffs)
            o = ivt_oracle(sign, lo, hi)
            assert o.root == zero, (coeffs, lo, hi)
            assert len(calls) <= 24, (coeffs, lo, hi, len(calls))

    def test_the_stream_still_starts_at_the_bracket(self):
        for coeffs, k in itertools.islice(self.irrational_zeros(200), 20):
            o = ivt_oracle(polynomial_sign(coeffs), k, k + 1)
            assert next(o.refiner()) == RInterval(F(k), F(k + 1))


def exp_spec(r, asked):
    """exp(r), 0 < r <= 1, by Taylor partial sums; ``asked`` records the
    eps of every modulus call and the index of every term call."""

    def term(n):
        asked.append(("term", n))
        total, t = F(0), F(1)
        for k in range(n + 1):
            total += t
            t = t * r / (k + 1)
        return total

    def modulus(eps):
        # The tail after term n is at most 2 r**(n+1) / (n+1)! for r <= 1.
        asked.append(("modulus", eps))
        n, t = 0, r
        while 2 * t > eps:
            n += 1
            t = t * r / (n + 1)
        return n

    return CauchySpec(term, modulus)


def one_level_per_pull(spec):
    """The Cauchy oracle as a plain fonsi over every tail enclosure."""
    return oracle_from_fonsi(FonsiSource(cauchy_tail_enclosures(spec)))


class TestCauchySeek:
    def test_one_bit_pulls_visit_every_level(self):
        got = list(itertools.islice(cauchy_oracle(exp_spec(F(2, 3), [])).refiner(), 40))
        assert got == list(itertools.islice(one_level_per_pull(exp_spec(F(2, 3), [])).refiner(), 40))

    def test_to_decimal_evaluates_a_few_terms(self):
        asked = []
        got = to_decimal(cauchy_oracle(exp_spec(F(1), asked)), 50, Budget(10**4))
        assert got.digits_text == to_decimal(one_level_per_pull(exp_spec(F(1), [])), 50, Budget(10**4)).digits_text
        assert got.digits_text.startswith("2.71828182845904523536028747135266249775724709369995")
        # The first level, then one seek to the two-guard-digit target: not
        # one term per bit of the 170 the digits need.
        assert len([a for a in asked if a[0] == "term"]) <= 3

    def test_budget_bounds_a_seek(self):
        asked = []
        o = cauchy_oracle(exp_spec(F(1, 2), asked))
        assert o.refine(F(1, 2 ** (10**6)), Budget(10)) is None
        assert min(eps for kind, eps in asked if kind == "modulus") == F(1, 2**9)
        assert o.enclosure.encloses(nth(cauchy_oracle(exp_spec(F(1, 2), [])).refiner(), 9))

    def test_a_seek_still_unmasks_a_wrong_modulus(self):
        # Terms diverge while the modulus promises convergence.
        spec = CauchySpec(term=lambda i: F(i), modulus=lambda eps: eps.denominator)
        with pytest.raises(InvalidFonsi):
            to_decimal(cauchy_oracle(spec), 3, Budget(100))


class TestNodeTargets:
    def test_a_target_pull_is_charged_its_furthest_leaf(self):
        # Each refiner step draws one element of each of the three leaves,
        # about 609 in all to reach the width; a target pull is charged the
        # furthest it took one leaf, not the elements it drew.
        width = F(1, 2**200)
        steps = next(k for k, got in enumerate(three_leaves().refiner(), 1) if got.width <= width)
        assert 200 <= steps <= 205
        assert three_leaves().refine(width, Budget(210)).width <= width
        assert three_leaves().refine(width, Budget(150)) is None

    def test_small_budget_still_exhausts(self):
        assert three_leaves().refine(F(1, 2**200), Budget(50)) is None

    @pytest.mark.parametrize(
        "make,value_lo,value_hi",
        [
            (lambda: o_sub(nth_root_oracle(2, 3), nth_root_oracle(2, 2)), F(3178, 10**4), F(3179, 10**4)),
            (lambda: o_mul(nth_root_oracle(2, 200), o_recip(nth_root_oracle(2, F(1, 50)), interval_make(F(1, 8), 1))),
             F(99999, 10**3), F(100001, 10**3)),
            (lambda: apply(poly_extension([1, 0, 3]), nth_root_oracle(3, 7)), F(11), F(12)),
            (lambda: apply(recip_extension(interval_make(1, 2)), nth_root_oracle(2, 3)), F(577, 1000), F(578, 1000)),
        ],
        ids=["sub", "mul-recip", "apply-poly", "apply-recip"],
    )
    def test_targets_reach_the_width_in_a_few_steps(self, make, value_lo, value_hi):
        for bits in (10, 100, 1000):
            got = make().refine(F(1, 2**bits), Budget(bits + 20))
            assert got is not None and got.width <= F(1, 2**bits)
            assert got.intersects(interval_make(value_lo, value_hi))

    def test_refine_results_stay_nested(self):
        o = three_leaves()
        seen = [o.refine(F(1, 10**k), Budget(10**4)) for k in (1, 5, 5, 30, 2, 300)]
        assert all(a.encloses(b) for a, b in zip(seen, seen[1:]))

    def test_a_met_target_still_makes_progress(self):
        # The rational operand never misses its target; the leaf does.
        o = o_mul(nth_root_oracle(2, 2), rational_oracle(3))
        got = o.refine(F(1, 2**64), Budget(200))
        assert got.width <= F(1, 2**64)
        assert to_decimal(o, 15, Budget(500)).digits_text == "4.242640687119285"


class TestSharedOperands:
    def test_a_shared_leaf_moves_once_per_step(self):
        x = nth_root_oracle(2, 2)
        assert o_add(x, x).refine(F(1, 2 ** (10**6)), Budget(10)) is None
        assert precision(x.enclosure) <= 10

    def test_repeated_squaring_pulls_the_leaf_once_per_step(self):
        drawn = []

        def stream():
            # Never narrows, so every target step misses at the leaf.
            while True:
                drawn.append(1)
                assert len(drawn) <= 50, "the leaf is pulled once per path"
                yield interval_make(-1, 1)

        y = Oracle(stream, label="x")
        # 2**16 paths lead from the top to the leaf. (Labels double per
        # level, so deeper DAGs cost memory before any pull.)
        for _ in range(16):
            y = o_mul(y, y)
        assert y.refine(F(1, 2**20), Budget(3)) is None
        assert len(drawn) <= 3


def squaring_chain():
    """3**(1/3) squared 7 times, the leaf shared by both operands."""
    y = nth_root_oracle(3, 3)
    for _ in range(7):
        y = o_mul(y, y)
    return y


def icbrt(n):
    """floor(n ** (1/3)) for a positive int, by Newton's method."""
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


class TestBoundedEndpoints:
    """A targeted pull rounds a node's image outward onto its want's grid,
    so endpoints grow with the precision asked, not with the DAG's depth."""

    def test_repeated_squaring_keeps_endpoints_near_the_target(self):
        # y = 3**(128/3). Exact images give 443332-bit endpoints here.
        digits = 1000
        y = squaring_chain()
        got = to_decimal(y, digits, Budget(10**6))
        limit = 2 * target_bits(F(1, 10 ** (digits + 2)))
        held = y.enclosure
        parts = (held.lo.numerator, held.lo.denominator, held.hi.numerator, held.hi.denominator)
        assert max(abs(n).bit_length() for n in parts) <= limit
        want = icbrt(3**128 * 10 ** (3 * digits))
        assert want**3 <= 3**128 * 10 ** (3 * digits) < (want + 1) ** 3
        assert got.value == F(want, 10**digits)

    def test_pulls_without_a_target_stay_exact(self):
        # Each refiner step is the exact image of one more leaf element.
        leaf_steps = itertools.islice(nth_root_oracle(3, 3).refiner(), 20)
        for got, leaf in zip(squaring_chain().refiner(), leaf_steps):
            want = leaf
            for _ in range(7):
                want = want.mul(want)
            assert (got.lo, got.hi) == (want.lo, want.hi)


def test_a_chain_deeper_than_the_recursion_limit_refines():
    # A pull visits the chain in one loop, not one frame per level.
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    node = nth_root_oracle(2, 2)
    for _ in range(depth):
        node = o_add(node, nth_root_oracle(2, 2))
    got = node.refine(F(1, 10**6), Budget(100))
    assert got is not None and got.width <= F(1, 10**6)
    # The sum is (depth + 1) * sqrt(2).
    scale = 10**12
    lo = F(math.isqrt(2 * (depth + 1) ** 2 * scale**2), scale)
    assert got.intersects(interval_make(lo, lo + F(1, scale)))


class TestWidthTypes:
    @pytest.mark.parametrize("width", [F(1, 1000), 2, "1/1000"], ids=lambda w: type(w).__name__)
    def test_any_rational_width(self, width):
        got = nth_root_oracle(2, 2).refine(width, Budget(50))
        assert got.width <= F(width) and got.contains(F(141421, 10**5))

    @pytest.mark.parametrize("width", [0.1, Decimal("0.001")], ids=lambda w: type(w).__name__)
    def test_inexact_widths_are_rejected(self, width):
        # As at every other entry point: no binary rounding slips in.
        with pytest.raises(TypeError, match="expected an exact rational"):
            nth_root_oracle(2, 2).refine(width, Budget(100))

    def test_a_text_width_refines_as_its_fraction(self):
        assert nth_root_oracle(2, 2).refine("1/8", Budget(100)) == nth_root_oracle(2, 2).refine(F(1, 8), Budget(100))

    @pytest.mark.parametrize("width", [0, F(0), -1, F(-1, 8), "-1/8"])
    def test_a_width_of_zero_or_less_is_refused(self, width):
        with pytest.raises(ValueError, match="must be positive"):
            nth_root_oracle(2, 2).refine(width, Budget(100))


def run_threads(work, count=6):
    """Run ``work(k)`` for k < count on as many threads, switching between
    them as often as the interpreter allows; return what they raised."""
    errors = []

    def guarded(k):
        try:
            work(k)
        except Exception as exc:  # returned to the caller's assertion
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(k,)) for k in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_threads_share_targeted_and_one_bit_pulls():
    o = three_leaves()
    results = []

    def work(k):
        for bits in range(8, 600, 29 + k):
            results.append(o.refine(F(1, 2**bits), Budget(10**4)))
            o.decide(interval_make(F(7, 2), 4), Budget(3))

    assert run_threads(work) == []
    # Every answer is a Yes interval of one nested sequence.
    assert all(got is not None and got.encloses(o.enclosure) for got in results)
    assert interval_make(F(35138482438495559, 10**16), F(3513848243849556, 10**15)).encloses(o.enclosure)


def test_threads_pull_roots_that_share_leaves():
    # Two roots pull the shared leaves x and y in opposite operand order, and
    # a third steps them through refiner(). A pull holds one lock at a time,
    # so no two pulls can wait on each other.
    x, y = nth_root_oracle(2, 2), nth_root_oracle(2, 3)
    roots = (o_add(x, y), o_mul(y, x), o_sub(x, y))
    results = [[], [], []]

    def work(k):
        root, got = roots[k % 3], results[k % 3]
        if k % 3 == 2:
            got.extend(itertools.islice(root.refiner(), 300))
        else:
            for bits in range(8, 800, 23 + k):
                got.append(root.refine(F(1, 2**bits), Budget(10**4)))

    assert run_threads(work) == []
    for root, got in zip(roots, results):
        assert got and all(iv is not None and iv.encloses(root.enclosure) for iv in got)


def test_threads_make_the_first_pull_of_fresh_nodes_together():
    # Each thread may read a node's operands before another thread's first
    # pull sets them, and the node's enclosure after; it must still pull.
    nodes = [op(nth_root_oracle(2, 2), nth_root_oracle(2, 3)) for _ in range(300) for op in (o_add, o_mul)]
    start = threading.Barrier(6)

    def work(k):
        for node in nodes:
            start.wait(timeout=10)
            got = node.refine(F(1, 2**20), Budget(100))
            assert got is not None and got.width <= F(1, 2**20)

    assert run_threads(work) == []
    assert all(node.enclosure.width <= F(1, 2**20) for node in nodes)
