"""The three seeded workloads: their inputs, their calls into realoracle,
and the independent check of every output.

Each workload turns ``--seed`` into an endless, deterministic stream of ops;
the library only ever sees the generated inputs. ``run`` makes one op's
calls (through a tracer, which is a no-op in untraced runs) and returns its
output; ``check`` compares that output with ``reference`` once the op's
clock has stopped.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from fractions import Fraction as F
from time import perf_counter
from typing import NamedTuple, Optional

from realoracle import arithmetic, axioms, cli, constructors, functions, refine
from realoracle.intervals import RInterval
from realoracle.oracle import Budget

import reference as ref

OK, WRONG, UNCHECKED, FAILED = ref.OK, ref.WRONG, ref.UNCHECKED, "failed"

DIGITS_BUDGET = Budget(1_000_000)
QUERY_BUDGET = Budget(4000)
BOUNDARY_BUDGET = Budget(1000)
WIDE = F(10 ** 12)

PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


class Record(NamedTuple):
    """One timed op, checked; ``kept`` is the small part of the output
    that the traced metrics need."""

    op_id: int
    label: str
    digits: Optional[int]
    group: Optional[int]
    took: float
    start: float
    traced: bool
    status: str
    kept: object


class Op:
    __slots__ = ("label", "spec", "digits", "group", "args")

    def __init__(self, label, spec, digits=None, group=None, args=()):
        self.label = label
        self.spec = spec
        self.digits = digits
        self.group = group
        self.args = args


def run_one(wl, op, tr, op_id, traced):
    """Run and time one op, then check it with the clock stopped."""
    tr.active = traced
    tr.begin_op(op_id)
    start = perf_counter()
    try:
        out = wl.run(op, tr)
    except Exception as exc:  # a failed op is counted and reported; the run goes on
        out = exc
    took = perf_counter() - start
    tr.end_op()
    if isinstance(out, Exception):
        print(f"op {op_id} ({op.label}) raised:", file=sys.stderr)
        traceback.print_exception(out, file=sys.stderr)
        return Record(op_id, op.label, op.digits, op.group, took, start, traced, FAILED, None)
    return Record(op_id, op.label, op.digits, op.group, took, start, traced, wl.check(op, out), wl.keep(op, out))


# -- input generators ------------------------------------------------------------

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def gen_root(rng, n, top=5000):
    while True:
        q = F(rng.randint(2, top), rng.randint(1, 50))
        if not ref.is_perfect_power(q, n):
            return ("root", n, q)


def gen_poly(rng, degrees=(3, 4, 5)):
    """A polynomial with exactly one zero, irrational, in a unit bracket."""
    while True:
        degree = rng.choice(degrees)
        cs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 2, 3, -1, -2, -3))]
        if cs[0] == 0:
            continue
        k = rng.randint(-4, 4)
        a, b = F(k), F(k + 1)
        if _sign(ref.poly_eval(cs, a)) * _sign(ref.poly_eval(cs, b)) >= 0:
            continue
        if ref.sturm_count(cs, a, b) != 1 or ref.has_rational_zero(cs):
            continue
        return ("poly", tuple(F(c) for c in cs), a, b)


def gen_lub(rng):
    """sup {x >= 0 : x^k + a*x <= c}, irrational, with its integer floor m."""
    while True:
        k, a, c = rng.choice((2, 3, 4)), rng.randint(1, 9), rng.randint(3, 5000)
        m = 0
        while (m + 1) ** k + a * (m + 1) <= c:
            m += 1
        if m ** k + a * m != c:
            return ("lub", k, a, c, m)


def gen_cauchy(rng):
    den = rng.randint(1, 9)
    return ("cauchy", rng.randint(1, den), den)


LEAF_KINDS = {
    # kind: (generator, lowest of the four digit tiers)
    "sqrt": (lambda rng: gen_root(rng, 2), 100),
    "cbrt": (lambda rng: gen_root(rng, 3), 100),
    "root_high": (lambda rng: gen_root(rng, rng.randint(10, 30), 1000), 10),
    "polyzero": (gen_poly, 50),
    "lub": (gen_lub, 50),
    "cauchy": (gen_cauchy, 10),
}
TIER_FACTORS = (1, 2, 4, 8)


def _outward(lo: F, hi: F, den=1000):
    return F(math.floor(lo * den), den), F(math.ceil(hi * den), den)


def zero_free_witness(spec):
    """lo:hi around the spec's value that excludes 0, or None if too near 0."""
    lo, hi = ref.enclosure(spec, 30)
    if abs(lo) < F(1, 4):
        return None
    a, b = sorted((lo * F(3, 4), hi * F(5, 4)))
    a, b = _outward(a, b)
    if a <= 0 <= b or not (a <= lo and hi <= b):
        return None
    return a, b


def _q(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(node) -> str:
    """The CLI grammar's text for a tree without apply nodes."""
    kind = node[0]
    if kind == "root":
        return f"sqrt({_q(node[2])})" if node[1] == 2 else f"root({node[1]}, {_q(node[2])})"
    if kind == "poly":
        return f"polyzero({', '.join(_q(c) for c in node[1])}; {_q(node[2])}, {_q(node[3])})"
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return f"({render(node[1])}) {op} ({render(node[2])})"
    if kind == "div":
        return f"({render(node[1])}) / ({_q(node[2])})"
    if kind == "recip":
        return f"recip({render(node[1])}; {_q(node[2])}:{_q(node[3])})"
    raise ValueError(f"no text form for {kind}")


EXPR_SHAPES = (
    "sqrt(p) * root(3, q) +- sqrt(r)",
    "(sqrt(p) + sqrt(q)) / k - root(3, r)",
    "recip(sqrt(p) - root(3, q); witness) * sqrt(r)",
    "polyzero(cubic) * sqrt(p) + root(4, q)",
    "apply(poly, sqrt(p) + root(3, q)) + sqrt(r)",
    "apply(recip, sqrt(p) * polyzero(cubic)) + sqrt(r)",
)


def gen_expr(rng, shape):
    """A tree of one of the fixed EXPR_SHAPES, with seeded leaves.

    Fixed shapes keep the cost mix of a round the same from seed to seed;
    the seed picks the primes, polynomials, constants and witnesses.
    """
    while True:
        primes = list(PRIMES)
        rng.shuffle(primes)
        r = lambda n: ("root", n, F(primes.pop()))
        if shape == 0:
            return (rng.choice(("add", "sub")), ("mul", r(2), r(3)), r(2))
        if shape == 1:
            return ("sub", ("div", ("add", r(2), r(2)), F(rng.randint(2, 9), rng.randint(1, 5))), r(3))
        if shape == 3:
            return ("add", ("mul", gen_poly(rng, (3,)), r(2)), r(4))
        if shape == 4:
            coeffs = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.choice((1, 2, -1))))
            return ("add", ("apply_poly", coeffs, ("add", r(2), r(3))), r(2))
        inner = ("sub", r(2), r(3)) if shape == 2 else ("mul", r(2), gen_poly(rng, (3,)))
        witness = zero_free_witness(inner)
        if witness is None:
            continue
        if shape == 2:
            return ("mul", ("recip", inner) + witness, r(2))
        return ("add", ("apply_recip",) + witness + (inner,), r(2))


# -- building oracles --------------------------------------------------------------

def poly_sign(coeffs):
    def sign(x):
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)
    return sign


def exp_series(num: int, den: int):
    """Naive term and modulus callbacks for exp(num/den), 0 < num/den <= 1."""
    r = F(num, den)

    def term(n):
        total, t = F(0), F(1)
        for k in range(n + 1):
            total += t
            t = t * r / (k + 1)
        return total

    def modulus(eps):
        # The tail after term n is at most 2 r^(n+1) / (n+1)! for r <= 1.
        n, t = 0, r
        while 2 * t > eps:
            n += 1
            t = t * r / (n + 1)
        return n

    return term, modulus


def build_leaf(spec, tr, tag):
    """One leaf oracle from the public constructors; callbacks are the
    benchmark's own, so their time is billed to the benchmark."""
    kind = spec[0]
    if kind == "root":
        oracle = tr.call("constructors.nth_root_oracle", constructors.nth_root_oracle, spec[1], spec[2], tag=tag)
    elif kind == "poly":
        sign = constructors.SignFunction(tr.callback(poly_sign(spec[1]), "sign"))
        oracle = tr.call("constructors.ivt_oracle", constructors.ivt_oracle, sign, spec[2], spec[3], tag=tag)
    elif kind == "lub":
        test = constructors.UpperBoundTest(
            tr.callback(lambda u: ref.lub_is_ub(spec, u), "upper_bound"), F(spec[4]), F(spec[4] + 1)
        )
        oracle = tr.call("constructors.lub_oracle", constructors.lub_oracle, test, tag=tag)
    elif kind == "cauchy":
        term, modulus = exp_series(spec[1], spec[2])
        cauchy = constructors.CauchySpec(tr.callback(term, "term"), tr.callback(modulus, "term"))
        oracle = tr.call("constructors.cauchy_oracle", constructors.cauchy_oracle, cauchy, tag=tag)
    else:
        raise ValueError(f"not a leaf: {kind}")
    return tr.pulls(oracle, "leaf")


def _mirror(node, tr):
    """What cli.build_oracle does, call for call, with every node wrapped."""
    if isinstance(node, cli.RationalLit):
        return tr.pulls(tr.call("constructors.rational_oracle", constructors.rational_oracle, node.value), "leaf")
    if isinstance(node, cli.Root):
        made = tr.call("constructors.nth_root_oracle", constructors.nth_root_oracle, node.index, node.radicand)
        return tr.pulls(made, "leaf")
    if isinstance(node, cli.PolyZero):
        sign = constructors.polynomial_sign(node.coeffs)
        made = tr.call("constructors.ivt_oracle", constructors.ivt_oracle, sign, node.bracket_lo, node.bracket_hi)
        return tr.pulls(made, "leaf")
    if isinstance(node, cli.Neg):
        return tr.pulls(tr.call("arithmetic.o_neg", arithmetic.o_neg, _mirror(node.child, tr)), "arith")
    if isinstance(node, cli.Recip):
        witness = RInterval(min(node.witness_lo, node.witness_hi), max(node.witness_lo, node.witness_hi))
        made = tr.call("arithmetic.o_recip", arithmetic.o_recip, _mirror(node.child, tr), witness)
        return tr.pulls(made, "arith")
    combine = {cli.Add: arithmetic.o_add, cli.Sub: arithmetic.o_sub, cli.Mul: arithmetic.o_mul}[type(node)]
    left, right = _mirror(node.left, tr), _mirror(node.right, tr)
    return tr.pulls(tr.call("arithmetic." + combine.__name__, combine, left, right), "arith")


def build_text(text, tr):
    """parse_expr then build_oracle; traced runs rebuild through the mirror
    so that the pulls of every inner node are counted."""
    ast = tr.call("cli.parse_expr", cli.parse_expr, text)
    oracle = tr.call("cli.build_oracle", cli.build_oracle, ast)
    return _mirror(ast, tr) if tr.active else oracle


def build_tree(spec, tr):
    if spec[0] == "add" and spec[1][0].startswith("apply_"):
        applied, outer = spec[1], spec[2]
        if applied[0] == "apply_poly":
            fn = tr.call("functions.poly_extension", functions.poly_extension, applied[1])
        else:
            fn = tr.call("functions.recip_extension", functions.recip_extension, RInterval(applied[1], applied[2]))
        inner = build_text(render(applied[-1]), tr)
        mapped = tr.pulls(tr.call("functions.apply", functions.apply, fn, inner), "apply")
        other = build_text(render(outer), tr)
        return tr.pulls(tr.call("arithmetic.o_add", arithmetic.o_add, mapped, other), "arith")
    return build_text(render(spec), tr)


def endpoint_bits(oracle) -> int:
    """Largest endpoint numerator or denominator bit length, read through
    public refine with a wide width (no pull is needed)."""
    got = oracle.refine(WIDE, Budget(1))
    if got is None:
        return 0
    return max(v.bit_length() for q in (got.lo, got.hi) for v in (q.numerator, q.denominator))


def _digits_output(oracle, op, tr):
    enc = tr.call("refine.to_decimal", refine.to_decimal, oracle, op.digits, DIGITS_BUDGET)
    return (enc.digits_text, endpoint_bits(oracle) if tr.active else None)


# -- workloads -----------------------------------------------------------------------

class LeafDigits:
    """Each op: one fresh leaf oracle, to_decimal at a digit tier."""

    name = "leaf_digits"
    fresh_per_op = True

    def __init__(self, seed):
        self.rng = random.Random(f"leaf_digits/{seed}")

    def setup(self, tr):
        pass

    def rounds(self):
        """Each round has one fresh spec per kind, at all four tiers, shuffled."""
        group = 0
        while True:
            ops = []
            for kind, (gen, base) in LEAF_KINDS.items():
                spec = gen(self.rng)
                ops.extend(Op(kind, spec, base * f, group) for f in TIER_FACTORS)
                group += 1
            self.rng.shuffle(ops)
            yield ops

    def run(self, op, tr):
        return _digits_output(build_leaf(op.spec, tr, op.label), op, tr)

    def check(self, op, out):
        return ref.check_digits(op.spec, out[0], op.digits)

    def keep(self, op, out):
        return out[1]


class ExprDigits:
    """Each op: parse_expr -> build_oracle -> to_decimal on a seeded tree."""

    name = "expr_digits"
    fresh_per_op = True
    TIERS = (10, 20, 40, 80)

    def __init__(self, seed):
        self.rng = random.Random(f"expr_digits/{seed}")

    def setup(self, tr):
        pass

    def rounds(self):
        group = 0
        while True:
            ops = []
            for shape in range(len(EXPR_SHAPES)):
                spec = gen_expr(self.rng, shape)
                label = "apply" if spec[1][0].startswith("apply_") else "tree"
                ops.extend(Op(label, spec, d, group) for d in self.TIERS)
                group += 1
            self.rng.shuffle(ops)
            yield ops

    def run(self, op, tr):
        return _digits_output(build_tree(op.spec, tr), op, tr)

    def check(self, op, out):
        return ref.check_digits(op.spec, out[0], op.digits)

    def keep(self, op, out):
        return out[1]


class Queries:
    """A pool of oracles and a long stream of cheap budgeted questions.

    After every round the next ``REFRESH`` pool entries, in turn, get a
    fresh seeded number, built on first use. So the mix of cold and cached
    answers does not depend on run length, and a run samples many numbers
    of each kind rather than one fixed set.
    """

    name = "queries"
    fresh_per_op = False
    # Leaves by root index or kind, then derived trees by EXPR_SHAPES index.
    POOL_KINDS = (2, 3, 5, "polyzero", "lub", "cauchy") + tuple(range(len(EXPR_SHAPES)))
    POOL = 3 * len(POOL_KINDS)
    REFRESH = 2
    SEPARATION = F(1, 10 ** 6)
    # Cheap questions are three quarters of a round and check_axioms a tenth,
    # so that p50 and p90 each fall inside one dense band of op times rather
    # than on a steep edge between bands, where they would swing with the seed.
    WEIGHTS = (
        ("decide", 45), ("locate", 15), ("compare", 15), ("refine", 3), ("mediant_expand", 4),
        ("best_approx", 3), ("rect_decide", 3), ("check_axioms", 10), ("boundary", 2),
    )

    def __init__(self, seed):
        self.rng = random.Random(f"queries/{seed}")
        self.specs = [None] * self.POOL
        self.refs = [None] * self.POOL
        self.oracles = [None] * self.POOL
        for i in range(self.POOL):
            self.refresh(i)
        self._next_refresh = 0
        self._best_checked = {}

    def refresh(self, i):
        """A fresh number for entry i, at least SEPARATION from every other
        entry, so that every compare has an answer and a modest cost."""
        kind = self.POOL_KINDS[i % len(self.POOL_KINDS)]
        while True:
            if isinstance(kind, int):
                spec = gen_expr(self.rng, kind)
            elif kind == "polyzero":
                spec = gen_poly(self.rng)
            elif kind == "lub":
                spec = gen_lub(self.rng)
            elif kind == "cauchy":
                spec = gen_cauchy(self.rng)
            else:
                spec = gen_root(self.rng, kind)
            lo, hi = ref.enclosure(spec, 60)
            others = (r for j, r in enumerate(self.refs) if j != i and r is not None)
            if all(hi + self.SEPARATION < r[0] or r[1] + self.SEPARATION < lo for r in others):
                break
        self.specs[i] = spec
        self.refs[i] = (lo, hi)
        self.oracles[i] = None

    def setup(self, tr):
        for i in range(self.POOL):
            self.slot(i, tr)

    def slot(self, i, tr):
        if self.oracles[i] is None:
            spec = self.specs[i]
            if spec[0] in ("root", "poly", "lub", "cauchy"):
                self.oracles[i] = build_leaf(spec, tr, "pool")
            else:
                self.oracles[i] = build_tree(spec, tr)
        return self.oracles[i]

    # -- question stream

    def rounds(self):
        """Each round asks every kind exactly its weight's number of times."""
        kinds = [name for name, weight in self.WEIGHTS for _ in range(weight)]
        while True:
            self.rng.shuffle(kinds)
            yield [self.gen_question(self.rng, kind) for kind in kinds]
            for _ in range(self.REFRESH):
                self.refresh(self._next_refresh)
                self._next_refresh = (self._next_refresh + 1) % self.POOL

    def gen_question(self, rng, kind):
        i = rng.randrange(self.POOL)
        x = self.refs[i][0]
        k = rng.randint(1, 12)
        w, den = F(1, 10 ** k), 10 ** (k + 2)
        u = lambda: F(rng.randint(125, 1000), 1000)
        if kind == "decide":
            if rng.random() < 0.5:
                a, b = x - w * u(), x + w * u()
            else:
                side = rng.choice((-1, 1))
                near = x + side * w * u()
                a, b = sorted((near, near + side * w * u()))
            a, b = _outward(a, b, den)
            return Op(kind, i, args=(RInterval(a, b),))
        if kind == "locate":
            return Op(kind, i, args=(F(round((x + rng.choice((-1, 1)) * w * u()) * den), den),))
        if kind == "compare":
            j = rng.randrange(self.POOL - 1)
            return Op(kind, i, args=(j + (j >= i),))
        if kind == "refine":
            return Op(kind, i, args=(w,))
        if kind == "mediant_expand":
            return Op(kind, i, args=(rng.randint(3, 10),))
        if kind == "best_approx":
            return Op(kind, i, args=(rng.choice((10, 100, 1000)),))
        if kind == "rect_decide":
            coeffs = tuple(F(rng.randint(1, 5)) for _ in range(rng.randint(2, 4)))
            lo = F(rng.randint(1, 20), 10)
            hi = lo + F(rng.randint(1, 10), 100)
            p_lo, p_hi = ref.poly_eval(coeffs, lo), ref.poly_eval(coeffs, hi)
            span = p_hi - p_lo
            if rng.random() < 0.5:
                margin = span * F(rng.randint(10, 100), 100)
                wall = (p_lo - margin, p_hi + margin)
            else:
                wall = (p_lo + span * F(rng.randint(5, 50), 100), p_hi + span)
            return Op(kind, None, args=(coeffs, RInterval(lo, hi), RInterval(*wall), p_lo, p_hi))
        if kind == "check_axioms":
            return Op(kind, i, args=(rng.randrange(10 ** 6),))
        return Op(kind, None, args=(rng.choice(("sub", "compare")), PRIMES[rng.randrange(30)]))

    def run(self, op, tr):
        kind = op.label
        if kind == "rect_decide":
            coeffs, base, wall = op.args[:3]
            fn = tr.call("functions.poly_extension", functions.poly_extension, coeffs)
            rect = functions.Rectangle(base, wall)
            return tr.call("functions.rect_decide", functions.rect_decide, fn, rect, QUERY_BUDGET).value
        if kind == "boundary":
            how, p = op.args
            x = build_leaf(("root", 2, F(p)), tr, "boundary")
            if how == "sub":
                diff = tr.pulls(tr.call("arithmetic.o_sub", arithmetic.o_sub, x, x), "arith")
                return tr.call("oracle.decide", diff.decide, RInterval(F(0), F(0)), BOUNDARY_BUDGET, tag="boundary").value
            return tr.call("arithmetic.compare", arithmetic.compare, x, x, BOUNDARY_BUDGET, tag="boundary").value
        oracle = self.slot(op.spec, tr)
        if kind == "decide":
            return tr.call("oracle.decide", oracle.decide, op.args[0], QUERY_BUDGET).value
        if kind == "locate":
            return tr.call("oracle.locate", oracle.locate, op.args[0], QUERY_BUDGET).value
        if kind == "compare":
            other = self.slot(op.args[0], tr)
            return tr.call("arithmetic.compare", arithmetic.compare, oracle, other, QUERY_BUDGET).value
        if kind == "refine":
            got = tr.call("oracle.refine", oracle.refine, op.args[0], QUERY_BUDGET)
            return None if got is None else (got.lo, got.hi)
        if kind == "mediant_expand":
            cf = tr.call("refine.mediant_expand", refine.mediant_expand, oracle, op.args[0], QUERY_BUDGET)
            return cf.terms, cf.steps
        if kind == "best_approx":
            return tr.call("refine.best_approx", refine.best_approx, oracle, op.args[0], QUERY_BUDGET)
        if kind == "check_axioms":
            reports = tr.call("axioms.check_axioms", axioms.check_axioms, oracle, op.args[0], 10, Budget(50))
            return tuple(r.verdict.value for r in reports)
        raise ValueError(f"unknown question {kind}")

    def keep(self, op, out):
        if op.label == "mediant_expand":
            return len(out[0]), out[1]
        return out if op.label == "check_axioms" else None

    def check(self, op, out):
        kind = op.label
        if kind == "boundary":
            return OK if out in ("Exhausted", "Undecided") else WRONG
        if kind == "rect_decide":
            _, _, wall, p_lo, p_hi = op.args
            expected = "Yes" if wall.lo <= p_lo and p_hi <= wall.hi else "No"
            return FAILED if out == "Exhausted" else ref.check_answer(expected, out)
        if kind == "check_axioms":
            return WRONG if "Falsified" in out else OK
        enc = self.refs[op.spec]
        if kind == "refine":
            if out is None:
                return FAILED
            lo, hi = out
            if hi - lo > op.args[0]:
                return WRONG
            return ref.check_answer(ref.expected_decide(enc, lo, hi), "Yes")
        if kind == "mediant_expand":
            return ref.check_cf(enc, out[0])
        if kind == "best_approx":
            key = (self.specs[op.spec], op.args[0], out)
            if key not in self._best_checked:
                self._best_checked[key] = ref.check_best_approx(enc, op.args[0], out)
            return self._best_checked[key]
        if kind == "decide":
            expected = ref.expected_decide(enc, op.args[0].lo, op.args[0].hi)
        elif kind == "locate":
            expected = ref.expected_locate(enc, op.args[0])
        else:
            expected = ref.expected_compare(enc, self.refs[op.args[0]])
        if out in ("Exhausted", "Undecided") and expected is not None:
            return FAILED
        return ref.check_answer(expected, out)


WORKLOADS = {w.name: w for w in (LeafDigits, ExprDigits, Queries)}
