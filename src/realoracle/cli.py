"""Command-line front end.

Subcommands: ``eval`` (certified decimal), ``cf`` (continued fraction),
``approx`` (best rational approximation), ``query`` (decide one interval),
``check`` (run the axiom suite). Exit codes: 0 for a definitive result,
2 when the budget ran out (Exhausted or Undecided), 1 for errors.

Expression grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom
    atom   := RATIONAL | "(" expr ")"
            | "sqrt" "(" RATIONAL ")"
            | "root" "(" INT "," RATIONAL ")"
            | "polyzero" "(" RATIONAL {"," RATIONAL} ";" RATIONAL "," RATIONAL ")"
            | "recip" "(" expr ";" RATIONAL ":" RATIONAL ")"
    RATIONAL := ["-"] INT ["/" INT]

``polyzero`` lists polynomial coefficients low to high, then the bracket
endpoints. ``recip``'s zero-free witness ``lo:hi`` must be a Yes interval of
its operand, decided within a bounded check, or the build fails; so a
one-point witness needs an exactly known operand. Division by a rational literal is exact,
left to right; division by a compound expression is rejected with a hint to
use ``recip`` with a witness interval. Nothing recurses: the parser is one
loop over an explicit stack, and trees are walked by ``_fold``.
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import __version__
from .arithmetic import o_add, o_mul, o_neg, o_recip, o_sub
from .constructors import ivt_oracle, nth_root_oracle, polynomial_sign, rational_oracle
from .errors import (
    BudgetExhausted,
    ExprSemanticError,
    ExprSyntaxError,
    OracleError,
)
from .intervals import format_rational, int_text, interval_make, parse_interval
from .oracle import Budget, Oracle, QueryResult
from .record import Record
from .refine import best_approx, mediant_expand, to_decimal

DEFAULT_BUDGET = 10_000


# -- abstract syntax ----------------------------------------------------------

class RationalLit(Record):
    value: Fraction


class Root(Record):
    index: int
    radicand: Fraction


class PolyZero(Record):
    coeffs: Tuple[Fraction, ...]
    bracket_lo: Fraction
    bracket_hi: Fraction


class Neg(Record):
    child: "ExprAst"


class Add(Record):
    left: "ExprAst"
    right: "ExprAst"


class Sub(Record):
    left: "ExprAst"
    right: "ExprAst"


class Mul(Record):
    left: "ExprAst"
    right: "ExprAst"


class Recip(Record):
    child: "ExprAst"
    witness_lo: Fraction
    witness_hi: Fraction


ExprAst = Union[RationalLit, Root, PolyZero, Neg, Add, Sub, Mul, Recip]


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = "+-*/(),;:"


# A token is (kind, text, position); its kind is "int", "name", the symbol,
# or "end" for the one token that ends every list, "end of input".
_Token = Tuple[str, str, int]


def _tokenize(source: str) -> List[_Token]:
    text = source.replace("−", "-")
    tokens: List[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(("int", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, "a number, name, or operator", repr(ch))
    tokens.append(("end", "end of input", len(text)))
    return tokens


# An operand: a node and its constant value, or None when it has none.
_Operand = Tuple[ExprAst, Optional[Fraction]]

_INFIX = {"+": (Add, operator.add), "-": (Sub, operator.sub), "*": (Mul, operator.mul)}


def _reduce(op: str, left: _Operand, right: _Operand, at: int) -> _Operand:
    """``left op right``. A division must have a nonzero constant divisor,
    which starts at position ``at``; it folds a constant dividend, and
    otherwise multiplies by the divisor's reciprocal."""
    node, value = left
    other, divisor = right
    if op != "/":
        cls, exact = _INFIX[op]
        return cls(node, other), None if value is None or divisor is None else exact(value, divisor)
    if divisor is None:
        raise ExprSemanticError(f"division by a non-literal expression at position {at}; "
                                "use recip(expr; lo:hi) with a zero-free witness interval")
    if divisor == 0:
        raise ExprSemanticError(f"division by zero at position {at}")
    if value is None:
        return Mul(node, RationalLit(1 / divisor)), None
    value /= divisor
    return RationalLit(value), value


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def _take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], repr(kind), tok[1])
        self.pos += 1
        return tok

    def _accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    # RATIONAL := ["-"] INT ["/" INT]
    def _rational(self, divisor: bool = False) -> Fraction:
        negative = self._accept("-")
        value = Fraction(int(self._take("int")[1]))
        # Take "/" only when an integer follows, so division of non-literals
        # still reaches _reduce with its hint, and not in a divisor, so
        # "x/2/3" is "(x/2)/3" as "1/2/3" is.
        tokens, pos = self.tokens, self.pos
        if not divisor and tokens[pos][0] == "/" and tokens[pos + 1][0] == "int":
            self.pos += 1
            den_tok = self._take("int")
            den = int(den_tok[1])
            if den == 0:
                raise ExprSemanticError(f"zero denominator at position {den_tok[2]}")
            value = Fraction(value.numerator, den)
        return -value if negative else value

    def parse(self) -> ExprAst:
        """One loop over the tokens, without recursion. A frame is one open
        "(" or "recip(", or the whole input: what opened it (its token, or
        None), the unary minuses before the operand it waits for, the sum so
        far with its pending "+" or "-", and the product so far with its
        pending "*" or "/" (and where the divisor starts). An operand is a
        node and its constant value, or None when it has none, so each
        operator reduces once, as soon as its right operand is complete."""
        tokens = self.tokens
        frames: List[tuple] = []
        opener, negations, total, add, product, mul, at = None, 0, None, None, None, None, 0
        while True:
            while self._accept("-"):
                negations += 1
            tok = tokens[self.pos]
            kind, text, where = tok
            if kind == "(" or kind == "name" and text == "recip":
                self.pos += 1
                if kind == "name":
                    self._take("(")
                frames.append((opener, negations, total, add, product, mul, at))
                opener, negations, total, add, product, mul = tok, 0, None, None, None, None
                continue
            if kind == "int":
                value = self._rational(divisor=mul == "/")
                operand = RationalLit(value), value
            elif kind == "name":
                operand = self._call(text, where), None
            elif kind == "end":
                raise ExprSyntaxError(where, "an expression", text)
            else:
                raise ExprSyntaxError(where, "a rational, '(', or a function name", text)
            while True:  # the operand is complete: reduce, then read an operator
                if negations:
                    node, value = operand
                    for _ in range(negations):
                        node = Neg(node)
                    if negations % 2 and value is not None:
                        value = -value
                    operand, negations = (node, value), 0
                product = operand if mul is None else _reduce(mul, product, operand, at)
                kind, text, where = tokens[self.pos]
                if kind == "*" or kind == "/":
                    self.pos += 1
                    mul, at = kind, tokens[self.pos][2]
                    break
                total = product if add is None else _reduce(add, total, product, at)
                if kind == "+" or kind == "-":
                    self.pos += 1
                    add, mul = kind, None
                    break
                if opener is None:
                    if kind != "end":
                        raise ExprSyntaxError(where, "end of input", text)
                    return total[0]
                if opener[0] == "(":
                    self._take(")")
                    operand = total
                else:
                    if not self._accept(";"):
                        raise ExprSemanticError(f"recip at position {opener[2]} needs a witness: recip(expr; lo:hi)")
                    wit_lo = self._rational()
                    self._take(":")
                    wit_hi = self._rational()
                    self._take(")")
                    operand = Recip(total[0], wit_lo, wit_hi), None
                opener, negations, total, add, product, mul, at = frames.pop()

    def _call(self, name: str, at: int) -> ExprAst:
        self.pos += 1
        if name in ("sqrt", "root"):
            self._take("(")
            index = 2
            if name == "root":
                index = self._rational()
                self._take(",")
            radicand = self._rational()
            self._take(")")
            if index.denominator != 1:
                raise ExprSemanticError(f"root index must be an integer, got {index}")
            if index < 1:
                raise ExprSemanticError(f"root index must be positive, got {index}")
            if radicand <= 0:
                raise ExprSemanticError(
                    f"root radicand must be a positive rational, got {format_rational(radicand)}")
            return Root(int(index), radicand)
        if name == "polyzero":
            self._take("(")
            coeffs = [self._rational()]
            while self._accept(","):
                coeffs.append(self._rational())
            self._take(";")
            lo = self._rational()
            self._take(",")
            hi = self._rational()
            self._take(")")
            if lo >= hi:
                raise ExprSemanticError("polyzero bracket needs lo < hi")
            sign = polynomial_sign(coeffs).eval_sign
            s_lo, s_hi = sign(lo), sign(hi)
            if s_lo != 0 and s_lo == s_hi:
                raise ExprSemanticError(f"polyzero bracket has the same strict sign ({s_lo:+d}) at both ends")
            return PolyZero(tuple(coeffs), lo, hi)
        raise ExprSyntaxError(at, "sqrt, root, polyzero, or recip", name)


# -- one walk over the tree ---------------------------------------------------

# The children of each AST class in field order: the only code that knows them.
_CHILDREN = {RationalLit: (), Root: (), PolyZero: (), Neg: ("child",), Recip: ("child",),
             Add: ("left", "right"), Sub: ("left", "right"), Mul: ("left", "right")}


def _fold(node: ExprAst, visit: Dict[type, Callable[..., Any]]) -> Any:
    """Fold the tree bottom-up without recursion: ``visit[type(n)]`` gets
    ``n`` and the folded values of its children in field order. Raises
    TypeError on a node that is not one of the AST classes."""
    order, todo = [], [node]
    while todo:  # pre-order, right child first, so reversed it is a post-order
        node = todo.pop()
        fields = _CHILDREN.get(type(node))
        if fields is None:
            raise TypeError(f"unknown node {node!r}")
        order.append((node, fields))
        todo.extend([getattr(node, name) for name in fields])
    values: List[Any] = []
    for node, fields in reversed(order):
        first = len(values) - len(fields)
        kids = values[first:]
        del values[first:]
        values.append(visit[type(node)](node, *kids))
    return values[0]


def parse_expr(text: str) -> ExprAst:
    """Parse expression text, or raise a positioned syntax/semantic error."""
    return _Parser(text).parse()


# -- pretty printer (inverse of the parser up to whitespace) ------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4


def _wrap(printed: Tuple[str, int], parent_prec: int) -> str:
    text, prec = printed
    return f"({text})" if prec < parent_prec else text


def _infix(symbol: str, prec: int) -> Callable[..., Tuple[str, int]]:
    return lambda _, left, right: (f"{_wrap(left, prec)} {symbol} {_wrap(right, prec + 1)}", prec)


# A node folds to its text and precedence, and a parent puts a child in
# parentheses when the child binds more loosely than the operand it fills.
# A negative literal prints as a quotient, (-3)/4, which folds back into it.
_FORMAT = {
    RationalLit: lambda node: (format_rational(node.value), _PREC_ATOM) if node.value >= 0 else (
        f"({int_text(node.value.numerator)})/{int_text(node.value.denominator)}", _PREC_MUL),
    Root: lambda node: (f"root({node.index}, {format_rational(node.radicand)})" if node.index != 2
                        else f"sqrt({format_rational(node.radicand)})", _PREC_ATOM),
    PolyZero: lambda node: (
        f"polyzero({', '.join(map(format_rational, node.coeffs))}; "
        f"{format_rational(node.bracket_lo)}, {format_rational(node.bracket_hi)})", _PREC_ATOM),
    Recip: lambda node, child: (
        f"recip({child[0]}; {format_rational(node.witness_lo)}:{format_rational(node.witness_hi)})", _PREC_ATOM),
    Neg: lambda _, child: (f"-{_wrap(child, _PREC_ATOM)}", _PREC_NEG),
    Add: _infix("+", _PREC_ADD), Sub: _infix("-", _PREC_ADD), Mul: _infix("*", _PREC_MUL),
}


def format_expr(node: ExprAst, parent_prec: int = 0) -> str:
    return _wrap(_fold(node, _FORMAT), parent_prec)


# -- evaluation ---------------------------------------------------------------

_BUILD = {
    RationalLit: lambda node: rational_oracle(node.value),
    Root: lambda node: nth_root_oracle(node.index, node.radicand),
    PolyZero: lambda node: ivt_oracle(polynomial_sign(node.coeffs), node.bracket_lo, node.bracket_hi),
    Recip: lambda node, child: o_recip(child, interval_make(node.witness_lo, node.witness_hi)),
    Neg: lambda _, child: o_neg(child),
    Add: lambda _, *kids: o_add(*kids), Sub: lambda _, *kids: o_sub(*kids), Mul: lambda _, *kids: o_mul(*kids),
}


def build_oracle(node: ExprAst) -> Oracle:
    return _fold(node, _BUILD)


# -- commands -----------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Argv(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Argv:
    parser = _Argv(prog="realoracle", description="Exact real arithmetic over interval oracles.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("expr", help="expression, e.g. 'sqrt(2) + 1'; recip(expr; lo:hi) needs expr to decide lo:hi Yes")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=f"refinement rounds per query (default {DEFAULT_BUDGET})")

    p_eval = sub.add_parser("eval", help="certified decimal enclosure")
    common(p_eval)
    p_eval.add_argument("--digits", type=int, default=10, help="decimal places (default 10)")
    p_eval.add_argument("--json", action="store_true",
                        help="emit exact rational bounds as JSON instead of text")

    p_cf = sub.add_parser("cf", help="continued fraction terms")
    common(p_cf)
    p_cf.add_argument("--terms", type=int, default=10, help="maximum terms (default 10)")

    p_approx = sub.add_parser("approx", help="best rational approximation")
    common(p_approx)
    p_approx.add_argument("--maxden", type=int, default=1000,
                          help="largest allowed denominator (default 1000)")

    p_query = sub.add_parser("query", help="decide one interval")
    common(p_query)
    p_query.add_argument("interval", help="inclusive rational interval, e.g. 1:2 or 1/2:3/4")

    p_check = sub.add_parser("check", help="run the axiom suite")
    common(p_check)
    p_check.add_argument("--samples", type=int, default=500, help="trials per property (default 500)")
    p_check.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    return parser


def _cmd_eval(args, oracle: Oracle) -> int:
    budget = Budget(args.budget)
    try:
        enclosure = to_decimal(oracle, args.digits, budget)
    except BudgetExhausted as stop:
        if args.json:
            best = oracle.enclosure
            payload = {"status": "exhausted", "budget": args.budget}
            if best is not None:
                payload["lo"] = format_rational(best.lo)
                payload["hi"] = format_rational(best.hi)
            print(json.dumps(payload))
        else:
            print(f"exhausted (budget={args.budget}): {stop}")
        return 2
    if args.json:
        half = Fraction(1, 10 ** args.digits)
        print(json.dumps({
            "lo": format_rational(enclosure.value),
            "hi": format_rational(enclosure.value + half),
            "status": "exact" if enclosure.exact else "ok",
        }))
    else:
        print(str(enclosure))
    return 0


def _cmd_cf(args, oracle: Oracle) -> int:
    print(mediant_expand(oracle, args.terms, Budget(args.budget)))
    return 0


def _cmd_approx(args, oracle: Oracle) -> int:
    print(format_rational(best_approx(oracle, args.maxden, Budget(args.budget))))
    return 0


def _cmd_query(args, oracle: Oracle) -> int:
    interval = parse_interval(args.interval)
    answer = oracle.decide(interval, Budget(args.budget))
    if answer is QueryResult.EXHAUSTED:
        print(f"Exhausted (budget={args.budget})")
        return 2
    print(answer.value)
    return 0


def _cmd_check(args, oracle: Oracle) -> int:
    # The only command that runs the axiom suite, so only it loads it.
    from .axioms import Verdict, check_axioms

    reports = check_axioms(oracle, args.seed, args.samples, Budget(args.budget))
    for report in reports:
        print(str(report))
    verdicts = {r.verdict for r in reports}
    if Verdict.FALSIFIED in verdicts:
        return 1
    if Verdict.INCONCLUSIVE in verdicts:
        return 2
    return 0


_COMMANDS = {"eval": _cmd_eval, "cf": _cmd_cf, "approx": _cmd_approx, "query": _cmd_query, "check": _cmd_check}


# "-h", "--", long options, and the negative numbers argparse takes as operands.
_OPTION_OR_NUMBER = re.compile(r"-h|--|--[^\W\d][\w-]*(=.*)?|-\d+|-\d*\.\d+")


def _operand(arg: str) -> str:
    """Any other argument that starts with "-" argparse would read as an
    unknown option; U+2212 in its place reads as a minus in expressions and
    intervals, so ``eval -1/2`` needs no ``--``."""
    if arg.startswith("-") and not _OPTION_OR_NUMBER.fullmatch(arg):
        return "−" + arg[1:]
    return arg


def run_command(argv: Sequence[str]) -> int:
    """Run one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args([_operand(arg) for arg in argv])
    except _UsageError as usage:
        print(f"error: {usage}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, build_oracle(parse_expr(args.expr)))
    except BudgetExhausted as stop:
        print(f"budget exhausted: {stop}", file=sys.stderr)
        return 2
    except (OracleError, ValueError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
