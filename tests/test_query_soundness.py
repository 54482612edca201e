"""Seeded differential: budgeted decide, locate and compare on derived nodes
(over root and rational leaves, and over zeros of polynomial signs on
non-dyadic brackets, with or without function applications, and through
reciprocal witnesses and domains that may lie) and on leaves without an
exact answer, against a deeply refined twin.

Each tree is built twice from the same seed. The twin is refined to width
2**-400, and every definitive answer of the other tree, at every budget,
must be one that a number in the twin's enclosure can have, so it agrees
with that enclosure wherever the enclosure decides.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from realoracle.arithmetic import CompareResult, compare, o_abs, o_add, o_mul, o_neg, o_recip, o_sub
from realoracle.constructors import (
    CauchySpec,
    SignFunction,
    UpperBoundTest,
    cauchy_oracle,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from realoracle.errors import DomainEscape, ZeroWitnessInvalid
from realoracle.functions import apply, poly_extension, recip_extension
from realoracle.intervals import RInterval, dyadic
from realoracle.oracle import Budget, FonsiSource, Placement, QueryResult, oracle_from_fonsi, target_bits

BUDGETS = (0, 1, 3, 10, 50, 200)
DEEP = F(1, 2**400)
KINDS = ("add", "sub", "mul", "mul", "neg", "abs", "recip")
# Function applications: a polynomial, and the reciprocal on a domain.
APPLY_KINDS = KINDS + ("poly", "recip_fn")


def random_leaf(rng: random.Random):
    q = F(rng.randint(1, 40), rng.randint(1, 6))
    if rng.random() < 0.3:
        return rational_oracle(q * rng.choice((1, -1)))
    return nth_root_oracle(rng.choice((2, 2, 3)), q)


def random_polyzero(rng: random.Random):
    """The zero of a polynomial sign on a bracket whose ends are mostly
    non-dyadic, so its bisection cells are too: a root of ``x**n - q``, or
    the rational zero ``r`` of ``(x - r) * (x**2 + 1)``, which is rooted."""
    m = rng.choice((3, 5, 7, 9))
    q = F(rng.randint(1, 40), rng.randint(1, 6))
    if rng.random() < 0.3:
        r = q * rng.choice((1, -1))
        return ivt_oracle(polynomial_sign((-r, 1, -r, 1)), r - F(rng.randint(1, 9), m), r + F(rng.randint(1, 9), m))
    n = rng.choice((2, 3))
    a = 0
    while F(a + 1, m) ** n <= q:
        a += 1
    return ivt_oracle(polynomial_sign((-q,) + (0,) * (n - 1) + (1,)), F(a, m), F(a + rng.randint(1, 4), m))


def random_leaf_or_polyzero(rng: random.Random):
    return random_polyzero(rng) if rng.random() < 0.5 else random_leaf(rng)


def random_operand(rng: random.Random, depth: int, leaf=random_leaf, kinds=KINDS):
    return leaf(rng) if depth == 0 or rng.random() < 0.2 else random_tree(rng, depth, leaf, kinds)


def clear_of_zero(x):
    """A witness from the operand's own refinement: the enclosure widened
    to twice its ends, or None when it does not keep clear of 0."""
    got = x.refine(F(1, 2**20), Budget(10**3))
    if got.lo > 0:
        return RInterval(got.lo / 2, got.hi * 2)
    if got.hi < 0:
        return RInterval(got.lo * 2, got.hi / 2)
    return None


def random_tree(rng: random.Random, depth: int, leaf=random_leaf, kinds=KINDS):
    """A tree of depth at most ``depth`` over ``leaf`` draws (root and
    rational leaves by default), with an operator of ``kinds`` on top
    (which folds away when every leaf is rational)."""
    kind = rng.choice(kinds)
    x = random_operand(rng, depth - 1, leaf, kinds)
    if kind == "neg":
        return o_neg(x)
    if kind == "abs":
        return o_abs(x)
    if kind in ("recip", "recip_fn"):
        witness = clear_of_zero(x)
        if witness is None:
            return o_neg(x)
        return o_recip(x, witness) if kind == "recip" else apply(recip_extension(witness), x)
    if kind == "poly":
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))]
        return apply(poly_extension(coeffs), x)
    y = x if rng.random() < 0.2 else random_operand(rng, depth - 1, leaf, kinds)
    return {"add": o_add, "sub": o_sub, "mul": o_mul}[kind](x, y)


def questions(rng: random.Random, near: RInterval):
    """Points and intervals near the number, at scales down to 2**-80, and
    the midpoint of its deep enclosure itself."""
    center = (near.lo + near.hi) / 2
    points = [center]
    for _ in range(3):
        points.append(center + F(rng.randint(-64, 64), 2 ** rng.randint(0, 80)))
    intervals = [RInterval(p, p) for p in points[:2]]
    for _ in range(3):
        lo, hi = sorted(rng.sample(points, 2))
        intervals.append(RInterval(lo, hi))
    return points, intervals


def placement_fits(got: Placement, deep: RInterval, point: F) -> bool:
    """Whether a definitive placement of ``point`` can hold for a number in
    ``deep``; it must, whenever ``deep`` alone settles the question."""
    if got is Placement.GREATER:
        return point < deep.hi
    if got is Placement.LESS:
        return deep.lo < point
    return deep.lo <= point <= deep.hi


def answer_fits(got: QueryResult, deep: RInterval, interval: RInterval) -> bool:
    """Whether a definitive answer can hold for a number in ``deep``."""
    if got is QueryResult.YES:
        return deep.intersects(interval)
    return not interval.encloses(deep)


def check_trees(seeds, leaf=random_leaf, kinds=KINDS) -> int:
    """Ask each tree every question at every budget against its deep twin;
    the count of definitive answers."""
    checked = 0
    for seed in seeds:
        depth = 1 + seed % 3
        deep = random_tree(random.Random(seed), depth, leaf, kinds).refine(DEEP, Budget(10**4))
        assert deep is not None
        tree = random_tree(random.Random(seed), depth, leaf, kinds)
        points, intervals = questions(random.Random(10**6 + seed), deep)
        for steps in BUDGETS:
            for point in points:
                got = tree.locate(point, Budget(steps))
                if got is not Placement.EXHAUSTED:
                    assert placement_fits(got, deep, point), (seed, tree.label, point, steps)
                    checked += 1
            for interval in intervals:
                got = tree.decide(interval, Budget(steps))
                if got is not QueryResult.EXHAUSTED:
                    assert answer_fits(got, deep, interval), (seed, tree.label, interval, steps)
                    checked += 1
    return checked


def test_budgeted_answers_agree_with_a_deep_twin():
    # Most questions sit far enough from the number to settle.
    assert check_trees(range(600)) > 10000


def test_budgeted_answers_over_polyzero_leaves_agree_with_a_deep_twin():
    # New seeds, so that the trees above stay as they are.
    assert check_trees(range(600, 800), random_leaf_or_polyzero) > 3000


def test_budgeted_answers_over_function_applications_agree_with_a_deep_twin():
    # New seeds again; the reciprocal's domain is drawn as recip's witness.
    assert check_trees(range(800, 1200), random_leaf_or_polyzero, APPLY_KINDS) > 10000


def test_point_regions_root_exactly_or_are_refused():
    # New seeds again. The one point of a witness or domain is the operand's
    # root, or else the midpoint of its twin's deep enclosure, within 2**-400
    # of the number: too close for a node's bounded check to refute.
    exact = refused = 0
    for seed in range(1200, 1500):
        depth = seed % 3
        deep = random_operand(random.Random(seed), depth, random_leaf_or_polyzero, APPLY_KINDS).refine(DEEP, Budget(10**4))
        x = random_operand(random.Random(seed), depth, random_leaf_or_polyzero, APPLY_KINDS)
        point = x.root if x.root is not None else deep.midpoint()
        if point == 0:
            continue
        region = RInterval(point, point)
        if random.Random(10**6 + seed).random() < 0.5:
            build, escape = (lambda: o_recip(x, region)), ZeroWitnessInvalid
        else:
            build, escape = (lambda: apply(recip_extension(region), x)), DomainEscape
        if x.root is not None:
            assert build().root == 1 / point, (seed, x.label)
            exact += 1
        else:
            with pytest.raises(escape):
                build()
            assert x.root is None, (seed, x.label)
            refused += 1
    assert exact > 50 and refused > 100, (exact, refused)


def lying_region(rng: random.Random, deep: RInterval):
    """A region that misses the number in ``deep`` by 2**-k, k from 20 to
    120, below or above it; None when it holds 0."""
    gap = F(1, 2 ** rng.randint(20, 120))
    reach = abs(deep.midpoint()) * F(rng.randint(1, 15), 16)
    if rng.random() < 0.5:
        region = RInterval(deep.lo - gap - reach, deep.lo - gap)
    else:
        region = RInterval(deep.hi + gap, deep.hi + gap + reach)
    return None if region.lo <= 0 <= region.hi else region


def tiny_operand(rng: random.Random):
    """``x*x - q + s*2**-k`` for x the square root of q, s = 1 or -1 and k
    from 20 to 120: the number s*2**-k, whose enclosures straddle 0 for
    long."""
    q = F(rng.randint(2, 40), rng.randint(1, 6))
    x = nth_root_oracle(2, q)
    tiny = rng.choice((1, -1)) * F(1, 2 ** rng.randint(20, 120))
    return o_add(o_sub(o_mul(x, x), rational_oracle(q)), rational_oracle(tiny))


def drawn_operand(seed: int):
    """The seed's case, its operand, and the generator the region is drawn
    from: a true witness from ``clear_of_zero``, a near miss of a random
    operand, or a region on either side of 0 of a tiny operand."""
    rng = random.Random(seed)
    case = rng.choice(("true", "near", "near", "tiny"))
    x = tiny_operand(rng) if case == "tiny" else random_operand(rng, seed % 3, random_leaf_or_polyzero, APPLY_KINDS)
    return case, x, rng


def test_lying_regions_are_refused_or_answer_soundly():
    # New seeds again. A witness or domain that misses the number by less
    # than the check budget can see, or lies on the wrong side of 0 while
    # the operand's enclosures still straddle it, must be refused at
    # construction; trusted, it would make the reciprocal answer Yes to the
    # region's own image. Whatever is built answers only what fits the
    # reciprocal of the operand's deep twin, the image included.
    refused = checked = 0
    for seed in range(2000, 2400):
        case, x, rng = drawn_operand(seed)
        deep = drawn_operand(seed)[1].refine(DEEP, Budget(10**4))
        if case == "true":
            region = clear_of_zero(x)
        elif case == "near":
            region = lying_region(rng, deep)
        else:
            region = RInterval(F(1, 2 ** rng.randint(1, 300)), rng.randint(1, 8))
            region = region if rng.random() < 0.5 else region.neg()
        if region is None or deep.lo <= 0 <= deep.hi:
            continue
        deep = deep.recip()
        if seed % 2:
            build, escape = (lambda: o_recip(x, region)), ZeroWitnessInvalid
        else:
            build, escape = (lambda: apply(recip_extension(region), x)), DomainEscape
        try:
            node = build()
        except escape:
            refused += 1
            continue
        points, intervals = questions(random.Random(10**6 + seed), deep)
        intervals.append(region.recip())
        for steps in BUDGETS:
            for point in points:
                got = node.locate(point, Budget(steps))
                if got is not Placement.EXHAUSTED:
                    assert placement_fits(got, deep, point), (seed, node.label, point, steps)
                    checked += 1
            for interval in intervals:
                got = node.decide(interval, Budget(steps))
                if got is not QueryResult.EXHAUSTED:
                    assert answer_fits(got, deep, interval), (seed, node.label, interval, steps)
                    checked += 1
    assert refused > 100 and checked > 1000, (refused, checked)


def test_successive_enclosures_are_nested():
    # New seeds again. A targeted pull rounds a node's image outward and
    # meets it with the enclosure held, so each enclosure lies in the one
    # before and meets the twin's, also when fine targets starved of budget
    # alternate with coarse ones, whose grids are coarser.
    asks = ((4, 10**4), (400, 1), (40, 1), (400, 1), (40, 1), (400, 1), (40, 1), (300, 2), (60, 2), (200, 1), (80, 1),
            (120, 10**4))
    for seed in range(1500, 1700):
        depth = 1 + seed % 3
        deep = random_tree(random.Random(seed), depth, random_leaf_or_polyzero, APPLY_KINDS).refine(DEEP, Budget(10**4))
        tree = random_tree(random.Random(seed), depth, random_leaf_or_polyzero, APPLY_KINDS)
        seen = []
        for bits, steps in asks:
            got = tree.refine(F(1, 2**bits), Budget(steps))
            assert got is None or got == tree.enclosure
            seen.append(tree.enclosure)
        for before, after in zip(seen, seen[1:]):
            assert before.encloses(after), (seed, tree.label)
        assert all(got.intersects(deep) for got in seen), (seed, tree.label)


def below(oracle):
    """The oracle and every oracle under it, each once."""
    seen, todo = {}, [oracle]
    while todo:
        o = todo.pop()
        if id(o) not in seen:
            seen[id(o)] = o
            todo.extend(o.operands)
    return seen.values()


def assert_root_is_the_point_enclosure(oracle):
    for o in below(oracle):
        got = o.enclosure
        if got is not None and got.is_singleton:
            assert o.root == got.lo, o.label
        else:
            assert o.root is None, o.label


def ask_a_seeded_mix(rng: random.Random, oracle, near: F):
    """Decide, locate, refine and refiner steps about ``near``, at the
    differentials' budgets; after each, a root is known exactly when the
    enclosure is a point, everywhere in the DAG, and a known root stays."""
    root = oracle.root
    for _ in range(30):
        steps = Budget(rng.choice(BUDGETS))
        lo, hi = sorted(near + F(rng.randint(-8, 8), 2 ** rng.randint(0, 60)) for _ in range(2))
        kind = rng.randrange(4)
        if kind == 0:
            oracle.decide(rng.choice((RInterval(lo, hi), RInterval(near, near))), steps)
        elif kind == 1:
            oracle.locate(rng.choice((lo, near)), steps)
        elif kind == 2:
            oracle.refine(F(1, 2 ** rng.randint(1, 80)), steps)
        else:
            next(oracle.refiner(), None)
        assert_root_is_the_point_enclosure(oracle)
        assert root is None or oracle.root == root, oracle.label
        root = oracle.root


def test_a_root_is_known_exactly_when_the_enclosure_is_a_point():
    # An opaque sign's zero past its rational-root probe starts unrooted,
    # and is rooted by its exact hint placing the zero as EQUAL.
    z = 1 + F(1, 3**50)
    opaque = ivt_oracle(SignFunction(lambda t: (t > z) - (t < z)), 1, 2)
    assert opaque.root is None
    # 0 * sqrt(2) is rooted at its first pull.
    product = o_mul(rational_oracle(0), nth_root_oracle(2, 2))
    assert product.root is None
    assert next(product.refiner()) == RInterval(F(0), F(0)) and product.root == 0
    cases = [
        (rational_oracle(F(-3, 7)), F(-3, 7)),
        (nth_root_oracle(3, F(8, 27)), F(2, 3)),
        (lub_oracle(UpperBoundTest(lambda u: u >= 2, F(2), F(5))), F(2)),
        (oracle_from_fonsi(FonsiSource((RInterval(F(5, 2) - dyadic(1, k), F(5, 2)) for k in range(10**6)),
                                       claimed_root=F(5, 2))), F(5, 2)),
        (opaque, z),
        (product, F(0)),
    ]
    for seed, (x, number) in enumerate(cases):
        ask_a_seeded_mix(random.Random(seed), x, number)
        assert x.locate(number, Budget(10)) is Placement.EQUAL, x.label
        assert x.root == number and x.enclosure == RInterval(number, number), x.label

    # Zero leaves make products that are rooted at their first pull.
    def leaf(rng):
        return rational_oracle(0) if rng.random() < 0.2 else random_leaf_or_polyzero(rng)

    for seed in range(1700, 1800):
        depth = 1 + seed % 3
        deep = random_tree(random.Random(seed), depth, leaf, APPLY_KINDS).refine(DEEP, Budget(10**4))
        tree = random_tree(random.Random(seed), depth, leaf, APPLY_KINDS)
        ask_a_seeded_mix(random.Random(seed), tree, deep.midpoint())


def partners(seed: int, x, deep: RInterval):
    """Trees to compare with ``x``, each with an enclosure of its number at
    most 2**-400 wide and whether it equals ``x``: ``x`` itself, a second
    build of it, ``x + 2**-k`` and an unrelated tree."""
    rng = random.Random(2 * 10**6 + seed)
    shift = F(1, 2 ** rng.randint(1, 60))
    depth = 1 + seed % 3
    other = random_tree(random.Random(3 * 10**6 + seed), depth)
    other_deep = random_tree(random.Random(3 * 10**6 + seed), depth).refine(DEEP, Budget(10**4))
    assert other_deep is not None
    return [
        (x, deep, True),
        (random_tree(random.Random(seed), depth), deep, True),
        (o_add(x, rational_oracle(shift)), RInterval(deep.lo + shift, deep.hi + shift), False),
        (other, other_deep, False),
    ]


def order_fits(got: CompareResult, x, y, deep_x: RInterval, deep_y: RInterval, equal: bool) -> bool:
    """Whether ``compare(x, y)`` can give ``got`` for numbers in ``deep_x``
    and ``deep_y``, and never LESS or GREATER for two equal numbers."""
    if got is CompareResult.LESS:
        return not equal and deep_x.lo < deep_y.hi
    if got is CompareResult.GREATER:
        return not equal and deep_y.lo < deep_x.hi
    if got is CompareResult.EQUAL_KNOWN:
        return x.root is not None and x.root == y.root
    return True


def test_budgeted_compares_agree_with_deep_twins():
    settled = 0
    for seed in range(300):
        depth = 1 + seed % 3
        deep = random_tree(random.Random(seed), depth).refine(DEEP, Budget(10**4))
        assert deep is not None
        x = random_tree(random.Random(seed), depth)
        for y, deep_y, equal in partners(seed, x, deep):
            for steps in BUDGETS:
                got = compare(x, y, Budget(steps))
                assert order_fits(got, x, y, deep, deep_y, equal), (seed, x.label, y.label, steps, got)
                settled += got is not CompareResult.UNDECIDED
    # Unrelated trees and shifted twins mostly settle; equal pairs never do
    # unless both roots are known.
    assert settled > 3000


def sign(value) -> int:
    return (value > 0) - (value < 0)


def random_unhinted_leaf(rng: random.Random):
    """A leaf that answers questions near its number by budgeted pulls (a
    Cauchy limit, a fonsi, a lub at its upper bounds), or a zero of an
    opaque sign rule, which answers by that rule and refines by pulls. Half
    of them sit on a rational, where questions at the number never settle."""
    kind = rng.choice(("cauchy", "fonsi", "lub", "zero"))
    num, den = rng.randint(2, 40), rng.randint(1, 6)
    q = F(num, den)
    r = F(rng.randint(-400, 400), rng.randint(1, 60))
    rational = rng.random() < 0.5
    if kind == "cauchy":
        if rational:
            # Terms r + (-1/2)**n: any two from index N on are 2**(1 - N) apart.
            return cauchy_oracle(CauchySpec(lambda n: r + F(-1, 2) ** n, lambda eps: target_bits(eps) + 1))
        # Terms floor(sqrt(q) * 2**n) / 2**n, all within 2**-n of sqrt(q).
        return cauchy_oracle(CauchySpec(lambda n: dyadic(math.isqrt(num * 4**n // den), n), target_bits))
    if kind == "fonsi":
        # Overlapping, not nested: each interval holds the number with a
        # random margin on either side of its dyadic truncation.
        def enumerate_around():
            for n in itertools.count():
                center = r if rational else dyadic(math.isqrt(num * 4**n // den), n)
                yield RInterval(center - dyadic(rng.randint(1, 3), n), center + dyadic(rng.randint(1, 3), n))

        return oracle_from_fonsi(FonsiSource(enumerate_around()))
    if kind == "lub":
        if rational:
            return lub_oracle(UpperBoundTest(lambda u: u >= r, r - rng.randint(1, 9), r + rng.randint(1, 9)))
        return lub_oracle(UpperBoundTest(lambda u: u >= 0 and u * u >= q, F(0), q + 1))
    if rational:
        rule = SignFunction(lambda t: sign((t - r) * (t * t + 1)))
        return ivt_oracle(rule, r - F(rng.randint(1, 9), 7), r + F(rng.randint(1, 9), 5))
    return ivt_oracle(SignFunction(lambda t: sign(t * t - q)), 0, q + 1)


def test_budgeted_leaf_answers_agree_with_a_deep_twin():
    checked = 0
    for seed in range(240):
        deep = random_unhinted_leaf(random.Random(seed)).refine(DEEP, Budget(10**4))
        assert deep is not None
        leaf = random_unhinted_leaf(random.Random(seed))
        rng = random.Random(10**6 + seed)
        points, intervals = questions(rng, deep)
        # Upper bounds: a lub can only refute that they are the least one.
        above = deep.hi + F(1, 2 ** rng.randint(1, 80))
        points += [deep.hi, above]
        intervals += [RInterval(deep.hi, deep.hi), RInterval(deep.hi, above)]
        for steps in BUDGETS:
            for point in points:
                got = leaf.locate(point, Budget(steps))
                if got is not Placement.EXHAUSTED:
                    assert placement_fits(got, deep, point), (seed, leaf.label, point, steps)
                    checked += 1
            for interval in intervals:
                got = leaf.decide(interval, Budget(steps))
                if got is not QueryResult.EXHAUSTED:
                    assert answer_fits(got, deep, interval), (seed, leaf.label, interval, steps)
                    checked += 1
    # Zeros answer every question from their sign rule; of the other
    # questions, those at rational numbers and at lubs' upper bounds never
    # settle.
    assert checked > 10000
