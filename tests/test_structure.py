"""Guards on how the package is put together, and on the pull schedule."""

import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import realoracle
from realoracle import axioms, cli
from realoracle.arithmetic import CompareResult, compare, o_add, o_mul, o_neg, o_sub
from realoracle.constructors import CauchySpec, cauchy_oracle, nth_root_oracle, rational_oracle
from realoracle.errors import BudgetExhausted
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import Budget, FonsiSource, Placement, QueryResult, oracle_from_fonsi, precision, target_bits
from realoracle.refine import to_decimal

PACKAGE = Path(realoracle.__file__).parent


def offenders(owner, pattern):
    """``file:line`` of each line outside the module ``owner`` (None: in
    any module) that matches ``pattern``."""
    return [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != owner
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_only_oracle_module_touches_the_stream_state():
    # Every budgeted pull goes through Oracle; other modules use its
    # queries, refiner() and enclosure instead of the private state.
    assert offenders("oracle.py", r"\._(pull|best)\b") == []


def test_only_intervals_module_knows_the_endpoint_layout():
    # Fraction's private slots, and allocation without its constructor, are
    # read and used in intervals.py alone; other modules call its primitives.
    assert offenders("intervals.py", r"\._(numerator|denominator)\b|object\.__new__") == []


def test_no_module_imports_dataclasses():
    # Value classes derive from record.Record, which generates no code, so
    # importing the package stays cheap for a CLI run in a fresh process.
    assert offenders(None, r"^\s*(from|import)\s+dataclasses\b") == []


def test_no_module_rebinds_a_variable_of_an_enclosing_function():
    # State kept between calls lives in objects, not in closures: node
    # images are pure functions of their operands' enclosures.
    assert offenders(None, r"\bnonlocal\b") == []


# The package's public names; the tools' names resolve on first use.
PUBLIC = [
    "ArithOp", "AxiomReport", "Budget", "BudgetExhausted", "CFExpansion", "CauchySpec", "CompareResult",
    "Counterexample", "DecimalEnclosure", "DomainEscape", "ExprSemanticError", "ExprSyntaxError", "FonsiSource",
    "FunctionOracle", "IntervalRelation", "InvalidBounds", "InvalidBracket", "InvalidFonsi", "Oracle",
    "OracleError", "Placement", "QueryResult", "RInterval", "Rational", "Rectangle", "SignFunction",
    "UnsupportedDomain", "UpperBoundTest", "Verdict", "ZeroInDenominator", "ZeroWitnessInvalid", "apply",
    "arithmetic", "as_rational", "axioms", "best_approx", "bisect_step", "build_oracle", "cauchy_oracle",
    "cauchy_tail_enclosures", "check_axioms", "cli", "compare", "constructors", "errors", "format_expr",
    "format_interval", "format_rational", "format_reports", "functions", "interval_arith", "interval_contains",
    "interval_intersection", "interval_make", "interval_relate", "intervals", "iroot", "is_rooted", "ivt_oracle",
    "lub_oracle", "mediant_expand", "nth_root_oracle", "o_abs", "o_add", "o_mul", "o_neg", "o_recip", "o_sub",
    "oracle", "oracle_from_fonsi", "parse_expr", "parse_interval", "parse_rational", "poly_extension",
    "polynomial_sign", "rational_oracle", "recip_extension", "record", "rect_decide", "refine", "replay",
    "run_command", "to_decimal",
]
LAZY = {
    axioms: ["AxiomReport", "Counterexample", "Verdict", "check_axioms", "format_reports", "replay"],
    cli: ["build_oracle", "format_expr", "parse_expr", "run_command"],
}


def test_a_bare_import_loads_the_number_core_only():
    # The axiom suite and the command line, and what only they use, load
    # on first use of one of their names.
    tools = ["realoracle.cli", "realoracle.axioms", "argparse", "json", "random"]
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import realoracle; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert "realoracle.functions" in loaded
    assert [name for name in tools if name in loaded] == []


def test_every_public_name_resolves_to_its_home():
    assert realoracle.__all__ == PUBLIC
    assert realoracle.axioms is axioms and realoracle.cli is cli
    for home, names in LAZY.items():
        for name in names:
            assert getattr(realoracle, name) is getattr(home, name), name
    star = {}
    exec("from realoracle import *", star)
    assert sorted(name for name in star if name != "__builtins__") == PUBLIC
    assert set(PUBLIC) <= set(dir(realoracle))


def test_an_unknown_name_names_the_module_and_the_attribute():
    with pytest.raises(AttributeError, match="module 'realoracle' has no attribute 'no_such_name'"):
        realoracle.no_such_name


def test_no_core_module_imports_the_tools():
    # The number core stands alone; only the package's __getattr__ and the
    # tools themselves reach cli and axioms.
    core = {"errors", "record", "intervals", "oracle", "constructors", "arithmetic", "refine", "functions"}
    pattern = r"^\s*(from\s+\.(cli|axioms)\b|from\s+\.\s+import\b.*\b(cli|axioms)\b|import\s+realoracle\.(cli|axioms)\b)"
    assert [hit for hit in offenders(None, pattern) if hit.split(".py:")[0] in core] == []


class Counting:
    """A fonsi leaf around ``center`` that counts how often it is pulled."""

    def __init__(self, center):
        self.pulls = 0
        self.oracle = oracle_from_fonsi(FonsiSource(self._enumerate(center)))

    def _enumerate(self, center):
        width = F(1)
        while True:
            self.pulls += 1
            yield interval_make(center - width, center + width)
            width /= 2


def pulls(*leaves):
    return tuple(leaf.pulls for leaf in leaves)


def test_each_refiner_step_pulls_every_leaf_once():
    a, b, c = Counting(F(1)), Counting(F(2)), Counting(F(3))
    node = o_mul(o_add(a.oracle, b.oracle), o_add(c.oracle, a.oracle))
    stream = node.refiner()
    seen = []
    for _ in range(4):
        next(stream)
        seen.append(pulls(a, b, c))
    # Every step pulls every operand of every node, and the shared leaf a,
    # reached by two paths, once.
    assert seen == [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]


def test_compare_pulls_both_sides_on_its_first_step():
    # compare locates 0 on the node x - y, whose first step pulls every
    # operand: [0, 2] - [4, 6] already lies below 0.
    x, y = Counting(F(1)), Counting(F(5))
    assert compare(x.oracle, y.oracle, Budget(1)) is CompareResult.LESS
    assert pulls(x, y) == (1, 1)


def test_compare_refines_only_the_side_without_a_root():
    x = Counting(F(1))
    assert compare(x.oracle, rational_oracle(F(3, 2)), Budget(3)) is CompareResult.LESS
    assert pulls(x) == (3,)


def test_only_oracle_module_passes_a_decide_rule():
    # Constructors give one exact locate hint; Oracle derives the decide
    # rule from it, so no module writes the same test twice.
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracle.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "partial_rule=" in line
    ]
    assert offenders == []


def boundary_sub(x, budget):
    return o_sub(x, x).decide(RInterval(F(0), F(0)), budget) is QueryResult.EXHAUSTED


def boundary_mul(y, budget):
    return o_mul(y, y).decide(RInterval(F(2), F(2)), budget) is QueryResult.EXHAUSTED


def boundary_compare(x, budget):
    return compare(x, x, budget) is CompareResult.UNDECIDED


def boundary_decimal(y, budget):
    # 2 = 2.000... sits on every last-place boundary, so the enclosure
    # straddles one however narrow it gets.
    with pytest.raises(BudgetExhausted):
        to_decimal(o_mul(y, y), 50, budget)
    return True


@pytest.mark.parametrize(
    "ask, image",
    [(boundary_sub, "sub"), (boundary_mul, "mul"), (boundary_compare, "sub"), (boundary_decimal, "mul")],
    ids=["x - x", "y * y", "compare(x, x)", "to_decimal(y * y)"],
)
def test_a_boundary_question_costs_log_budget_node_steps(monkeypatch, ask, image):
    # The question never settles, so it spends the whole budget. The node
    # gallops its precision target, and the leaf still ends exactly as deep
    # as B one-element pulls take a lone leaf: one bit per step after its
    # first element. Each node step calls the node's image once; compare
    # builds its node itself, so the count is taken at the RInterval method.
    calls = [0]
    method = getattr(RInterval, image)

    def counting(*known):
        calls[0] += 1
        return method(*known)

    monkeypatch.setattr(RInterval, image, counting)
    budget = 10**5
    leaf = nth_root_oracle(2, 2)
    assert ask(leaf, Budget(budget))
    assert calls[0] <= 20
    assert precision(leaf.enclosure) == budget - 1


def test_a_shared_leaf_steps_once_to_the_largest_want_of_its_parents(monkeypatch):
    # Asked for 2**-1000, the top asks x for 1001 bits and, three levels
    # down, for 1004; y is asked for 1002, 1003 and 1004. Each steps once,
    # to the largest, so one pass of the four add nodes reaches the width.
    # The patch comes before the build: each node keeps RInterval.add.
    calls = [0]
    add = RInterval.add

    def counting(*known):
        calls[0] += 1
        return add(*known)

    monkeypatch.setattr(RInterval, "add", counting)
    x, y = nth_root_oracle(2, 2 * 10**12), nth_root_oracle(2, 3)
    node = o_add(x, o_add(y, o_add(y, o_add(y, x))))
    assert node.refine(F(1, 2**64), Budget(1000)) is not None
    calls[0] = 0
    assert node.refine(F(1, 2**1000), Budget(10**4)).width <= F(1, 2**1000)
    assert calls[0] == 4


# Each shape over leaves a = 1 and b = 2, with its exact value. Counting
# leaves never reach a point, so questions at the value never settle.
SHAPES = {
    "a + b": (lambda a, b: o_add(a, b), F(3)),
    "a - a": (lambda a, b: o_sub(a, a), F(0)),
    "(a + b) * a": (lambda a, b: o_mul(o_add(a, b), a), F(3)),
    "-(a * a) + b": (lambda a, b: o_add(o_neg(o_mul(a, a)), b), F(1)),
}


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 100])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_budget_takes_no_leaf_past_one_element_pulls(shape, budget):
    # No step draws more elements from a leaf than it is charged, not even
    # a node's first, which pulls every operand once but a shared leaf once.
    build, value = SHAPES[shape]
    for ask in ("decide", "locate"):
        a, b = Counting(F(1)), Counting(F(2))
        node = build(a.oracle, b.oracle)
        if ask == "decide":
            assert node.decide(RInterval(value, value), Budget(budget)) is QueryResult.EXHAUSTED
        else:
            assert node.locate(value, Budget(budget)) is Placement.EXHAUSTED
        assert max(pulls(a, b)) <= budget


def test_a_boundary_question_costs_log_budget_leaf_seeks():
    # A Cauchy leaf without its limit: the singleton of the limit never
    # settles. Its pulls gallop like a node's, each seek costing one term
    # call, and the leaf ends as deep as one-element pulls take it.
    calls = [0]

    def term(n):
        calls[0] += 1
        return 2 - F(1, 2**n)

    leaf = cauchy_oracle(CauchySpec(term, target_bits))
    budget = 10**4
    assert leaf.decide(RInterval(F(2), F(2)), Budget(budget)) is QueryResult.EXHAUSTED
    assert calls[0] <= 20
    assert precision(leaf.enclosure) == budget - 2
