"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values come from independent computations inside this module:
integer root extraction, Euclidean continued fractions, exhaustive
denominator searches, and plain-Fraction differential evaluation.
"""

import math
import random
import time
from fractions import Fraction as F

from realoracle.arithmetic import CompareResult, compare, o_add, o_mul, o_neg, o_recip
from realoracle.axioms import Verdict, check_axioms, replay
from realoracle.cli import (
    Add,
    Mul,
    Neg,
    PolyZero,
    RationalLit,
    Recip,
    Root,
    Sub,
    format_expr,
    parse_expr,
    run_command,
)
from realoracle.constructors import (
    CauchySpec,
    UpperBoundTest,
    cauchy_oracle,
    iroot,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.functions import Rectangle, apply, poly_extension, rect_decide
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, Oracle, QueryResult
from realoracle.refine import best_approx, mediant_expand, to_decimal


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def sqrt2():
    return nth_root_oracle(2, 2)


def cbrt2():
    return nth_root_oracle(3, 2)


def golden():
    return ivt_oracle(polynomial_sign([-1, -1, 1]), 1, 2)


def doubling_sum_oracle():
    def term(i):
        return 2 - F(1, 2**i)

    def modulus(eps):
        inv = -(-eps.denominator // eps.numerator)
        return max(0, (inv - 1).bit_length())

    return cauchy_oracle(CauchySpec(term=term, modulus=modulus, known_limit=F(2)))


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


def root_enclosure(radicand_scaled: int, index: int, scale: int):
    """Independent enclosure of the index-th root via integer extraction."""
    r = iroot(radicand_scaled, index)
    return F(r, scale), F(r + 1, scale)


def euclid_cf(q: F):
    terms = []
    num, den = q.numerator, q.denominator
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            return terms
        num, den = den, rem


class TestCriterion1:
    def test_axiom_suite(self):
        start = time.monotonic()
        budget = Budget(64)
        rng = random.Random(20240808)
        oracles = [
            rational_oracle(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))
            for _ in range(200)
        ]
        oracles += [sqrt2(), cbrt2(), golden(), doubling_sum_oracle()]
        for oracle in oracles:
            reports = check_axioms(oracle, 7, 500, budget)
            assert len(reports) == 9
            falsified = [r for r in reports if r.verdict is Verdict.FALSIFIED]
            assert not falsified, (oracle.label, [str(r) for r in falsified])
            assert all(r.verdict is Verdict.PASSED for r in reports), oracle.label
        broken = broken_width_oracle()
        reports = check_axioms(broken, 7, 500, budget)
        falsified = [r for r in reports if r.verdict is Verdict.FALSIFIED]
        assert len(falsified) >= 2
        for report in falsified:
            cex = report.counterexample
            assert cex is not None
            assert replay(broken, cex) == tuple(res for _, res in cex.queries)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s"
        ok(1, f"204 oracles pass all nine checks, broken rule falsified {len(falsified)} times "
              f"with replayable witnesses ({elapsed:.2f}s)")


class TestCriterion2:
    def test_sqrt2_fifty_digits(self):
        start = time.monotonic()
        got = to_decimal(sqrt2(), 50, Budget(400))
        want = str(math.isqrt(2 * 10**100))  # 51 digits: floor(sqrt2 * 10**50)
        assert got.digits_text.replace(".", "") == want
        assert str(got).endswith("± 1e-50")
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        ok(2, f"50 digits of the square root of 2 match integer extraction ({elapsed:.2f}s)")


class TestCriterion3:
    def test_continued_fractions(self):
        cf = mediant_expand(sqrt2(), 20, Budget(400))
        assert cf.terms == (1,) + (2,) * 19
        for conv in cf.convergents:
            assert abs(conv.numerator**2 - 2 * conv.denominator**2) == 1
        cf = mediant_expand(golden(), 10, Budget(400))
        assert cf.terms == (1,) * 10
        fib = [1, 1]
        while len(fib) < 12:
            fib.append(fib[-1] + fib[-2])
        assert list(cf.convergents) == [F(fib[i + 1], fib[i]) for i in range(10)]
        ok(3, "20 terms of sqrt2 verified by the Pell identity, 10 golden terms are "
              "Fibonacci ratios")


class TestCriterion4:
    def test_best_approximation_vs_brute_force(self):
        start = time.monotonic()
        scale = 10**50
        targets = [
            (sqrt2(), root_enclosure(2 * scale**2, 2, scale)),
            (cbrt2(), root_enclosure(2 * scale**3, 3, scale)),
            (golden(), None),
        ]
        isq5 = iroot(5 * scale**2, 2)
        targets[2] = (golden(), (F(scale + isq5, 2 * scale), F(scale + isq5 + 1, 2 * scale)))
        budget = Budget(400)
        for oracle, (lo, hi) in targets:
            for limit in range(1, 51):
                best, best_err = None, None
                for den in range(1, limit + 1):
                    base = (lo.numerator * den) // lo.denominator
                    for p in (base - 1, base, base + 1, base + 2):
                        err = max(abs(F(p, den) - lo), abs(F(p, den) - hi))
                        if best_err is None or err < best_err:
                            best, best_err = F(p, den), err
                assert best_approx(oracle, limit, budget) == best, (oracle.label, limit)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        ok(4, f"best approximations equal exhaustive search for 3 targets, every "
              f"denominator bound up to 50 ({elapsed:.2f}s)")


class TestCriterion5:
    def test_rational_mediant_termination(self):
        rng = random.Random(5050)
        budget = Budget(400)
        for _ in range(100):
            q = F(rng.randint(1, 5000), rng.randint(1, 1000))
            cf = mediant_expand(rational_oracle(q), 128, budget)
            assert cf.exact_terminated
            assert cf.convergents[-1] == q
            assert cf.steps <= sum(euclid_cf(q))
        ok(5, "100 random rationals recovered exactly within the term-sum step bound")


def _tree_value_enclosure(node, enclosures):
    kind = node[0]
    if kind == "leaf":
        return enclosures[node[1]]
    if kind == "neg":
        lo, hi = _tree_value_enclosure(node[1], enclosures)
        return (-hi, -lo)
    a_lo, a_hi = _tree_value_enclosure(node[1], enclosures)
    b_lo, b_hi = _tree_value_enclosure(node[2], enclosures)
    if kind == "add":
        return (a_lo + b_lo, a_hi + b_hi)
    if kind == "sub":
        return (a_lo - b_hi, a_hi - b_lo)
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return (min(products), max(products))


def _tree_oracle(node, leaves):
    kind = node[0]
    if kind == "leaf":
        return leaves[node[1]]()
    if kind == "neg":
        return o_neg(_tree_oracle(node[1], leaves))
    left = _tree_oracle(node[1], leaves)
    right = _tree_oracle(node[2], leaves)
    if kind == "add":
        return o_add(left, right)
    if kind == "sub":
        return o_add(left, o_neg(right))
    return o_mul(left, right)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return ("leaf", rng.randrange(4))
    kind = rng.choice(["neg", "add", "sub", "mul"])
    if kind == "neg":
        return (kind, _random_tree(rng, depth - 1))
    return (kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


class TestCriterion6:
    def test_arithmetic_enclosures_and_differential(self):
        start = time.monotonic()
        width = F(1, 10**30)
        budget = Budget(400)
        got = o_mul(sqrt2(), sqrt2()).refine(width, budget)
        assert got.width <= width and got.lo <= 2 <= got.hi
        got = o_add(sqrt2(), o_neg(sqrt2())).refine(width, budget)
        assert got.width <= width and got.lo <= 0 <= got.hi
        got = o_mul(sqrt2(), o_recip(sqrt2(), interval_make(1, 2))).refine(width, budget)
        assert got.width <= width and got.lo <= 1 <= got.hi

        # Differential: a 200-digit evaluation by plain fraction arithmetic,
        # with leaf enclosures from integer root extraction.
        scale = 10**200
        leaf_makers = [
            lambda: rational_oracle(F(3, 7)),
            lambda: rational_oracle(F(-5, 2)),
            sqrt2,
            cbrt2,
        ]
        leaf_bounds = {
            0: (F(3, 7), F(3, 7)),
            1: (F(-5, 2), F(-5, 2)),
            2: root_enclosure(2 * scale**2, 2, scale),
            3: root_enclosure(2 * scale**3, 3, scale),
        }
        rng = random.Random(606)
        decided = contradictions = 0
        query_budget = Budget(64)
        for _ in range(1000):
            tree = _random_tree(rng, 5)
            lo, hi = _tree_value_enclosure(tree, leaf_bounds)
            oracle = _tree_oracle(tree, leaf_makers)
            mid = (lo + hi) / 2
            spread = (hi - lo) + 1
            queries = [
                interval_make(mid - spread, mid + spread),
                interval_make(hi + spread, hi + 2 * spread),
                interval_make(lo - 2 * spread, lo - spread),
                interval_make(mid, mid + spread),
            ]
            for query in queries:
                answer = oracle.decide(query, query_budget)
                if answer is QueryResult.EXHAUSTED:
                    continue
                decided += 1
                if query.lo <= lo and hi <= query.hi:  # surely contains
                    if answer is QueryResult.NO:
                        contradictions += 1
                elif query.hi < lo or hi < query.lo:  # surely disjoint
                    if answer is QueryResult.YES:
                        contradictions += 1
        assert contradictions == 0
        assert decided >= 3000  # the test must actually decide things
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        ok(6, f"enclosures hit 2, 0, 1 at width 1e-30; {decided} definitive answers over "
              f"1000 random trees, zero contradictions ({elapsed:.2f}s)")


class TestCriterion7:
    def test_semidecidability_semantics(self):
        cancel = o_add(sqrt2(), o_neg(sqrt2()))
        zero = RInterval(F(0), F(0))
        for power in (2, 3, 4, 5):
            answer = cancel.decide(zero, Budget(10**power))
            assert answer is QueryResult.EXHAUSTED, f"budget 10**{power} gave {answer}"
        same = sqrt2()
        for budget in (1, 10, 100, 1000, 10**4):
            assert compare(same, same, Budget(budget)) is CompareResult.UNDECIDED

        # Budget monotonicity across a corpus of mixed queries.
        corpus = []
        x = sqrt2()
        y = cbrt2()
        queries = [
            interval_make(1, 2),
            interval_make(F(3, 2), 2),
            interval_make(0, F(5, 4)),
            RInterval(F(7, 5), F(7, 5)),
        ]
        for oracle in (x, y, o_add(x, y), o_mul(x, y), golden(), doubling_sum_oracle()):
            for query in queries:
                corpus.append((oracle, query))
        for oracle, query in corpus:
            answers = [oracle.decide(query, Budget(b)) for b in (0, 1, 4, 16, 64, 256)]
            definitive = [a for a in answers if a is not QueryResult.EXHAUSTED]
            assert len(set(definitive)) <= 1, (oracle.label, str(query), answers)
        ok(7, "difference with itself stays Exhausted through budget 1e5, self-comparison "
              "stays Undecided, definitive answers never flip")


class TestCriterion8:
    def test_function_oracles(self):
        width = F(1, 10**20)
        budget = Budget(400)
        square = poly_extension([0, 0, 1])
        via_apply = apply(square, sqrt2()).refine(width, budget)
        via_mul = o_mul(sqrt2(), sqrt2()).refine(width, budget)
        assert via_apply.lo <= 2 <= via_apply.hi
        assert via_mul.lo <= 2 <= via_mul.hi
        assert via_apply.intersects(via_mul)

        def poly_value(coeffs, t):
            acc = F(0)
            for c in reversed(coeffs):
                acc = acc * t + c
            return acc

        rng = random.Random(808)
        for _ in range(1000):
            coeffs = [F(rng.randint(0, 6)) for _ in range(rng.randint(1, 4))]
            fn = poly_extension(coeffs)
            a = F(rng.randint(0, 20), rng.randint(1, 4))
            base = interval_make(a, a + F(rng.randint(1, 12), 4))
            lo_img = poly_value(coeffs, base.lo)
            hi_img = poly_value(coeffs, base.hi)
            margin = (hi_img - lo_img) / 5 + 1
            roomy = interval_make(lo_img - margin, hi_img + margin)
            assert rect_decide(fn, Rectangle(base, roomy), budget) is QueryResult.YES
            if hi_img > lo_img:
                clipped = interval_make(lo_img - margin, hi_img - (hi_img - lo_img) / 7)
                assert rect_decide(fn, Rectangle(base, clipped), budget) is QueryResult.NO
        ok(8, "apply and multiplication agree on the square of sqrt2 at width 1e-20; "
              "1000 rectangle decisions match monotone image computation")


class TestCriterion9:
    def test_lub_cross_check(self):
        width = F(1, 10**20)
        test = UpperBoundTest(
            is_ub=lambda u: u > 0 and u.numerator**2 >= 2 * u.denominator**2,
            seed_member=F(1),
            seed_bound=F(2),
        )
        via_lub = lub_oracle(test)
        via_root = sqrt2()
        a = via_lub.refine(width, Budget(400))
        b = via_root.refine(width, Budget(400))
        assert a.width <= width and b.width <= width
        assert a.intersects(b)
        for enclosure in (a, b):
            assert enclosure.lo**2 <= 2 <= enclosure.hi**2
        assert compare(via_lub, via_root, Budget(10**4)) is CompareResult.UNDECIDED
        ok(9, "least-upper-bound construction matches the root oracle at width 1e-20 "
              "and stays Undecided at budget 1e4")


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return RationalLit(F(rng.randint(-40, 40), rng.randint(1, 12)))
        if choice == 1:
            return Root(rng.choice([2, 2, 3, 5]), F(rng.randint(1, 30), rng.randint(1, 6)))
        return PolyZero((F(-rng.randint(1, 5)), F(0), F(1)), F(0), F(10))
    choice = rng.randrange(5)
    if choice == 0:
        return Neg(_random_ast(rng, depth - 1))
    if choice == 1:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if choice == 2:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if choice == 3:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Recip(_random_ast(rng, depth - 1), F(rng.randint(1, 5)), F(rng.randint(6, 12)))


class TestCriterion10:
    def test_cli_golden_and_fuzz(self, capsys):
        code = run_command(["eval", "sqrt(2)+1", "--digits", "10"])
        assert (capsys.readouterr().out, code) == ("2.4142135623 ± 1e-10\n", 0)
        code = run_command(["cf", "sqrt(2)", "--terms", "5"])
        assert (capsys.readouterr().out, code) == ("1; 2 2 2 2\n", 0)
        code = run_command(["query", "sqrt(2)", "1:2"])
        assert (capsys.readouterr().out, code) == ("Yes\n", 0)

        rng = random.Random(1010)
        failures = 0
        for _ in range(10_000):
            ast = _random_ast(rng, rng.randint(0, 4))
            if parse_expr(format_expr(ast)) != ast:
                failures += 1
        assert failures == 0
        with capsys.disabled():
            ok(10, "three golden commands byte-exact; 10000 fuzzed expressions "
                   "round-trip with zero failures")
