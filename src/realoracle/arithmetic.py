"""Arithmetic on oracles, and ordering by disjoint Yes intervals.

A derived oracle refines by applying exact interval arithmetic to its
operands' refinements. Its definitive answers come from enclosure
containment or separation; boundary questions (is x - x exactly 0?) stay
Exhausted at every finite budget. When every operand carries a known root
the result collapses to the rational oracle of the exact value, which is
why arithmetic on rationals is always definitive.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .constructors import rational_oracle
from .errors import ZeroWitnessInvalid
from .functions import _claimed, recip_extension
from .intervals import RInterval, _le, mag_bits
from .oracle import Budget, Oracle, Placement, node_oracle

_ZERO = Fraction(0)


class CompareResult(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL_KNOWN = "EqualKnown"
    UNDECIDED = "Undecided"


_ORDER = {
    Placement.LESS: CompareResult.LESS,
    Placement.GREATER: CompareResult.GREATER,
    Placement.EQUAL: CompareResult.EQUAL_KNOWN,
    Placement.EXHAUSTED: CompareResult.UNDECIDED,
}


def _node(operands, image, label: str, split) -> Oracle:
    # Exact interval arithmetic maps the roots' singletons to the singleton
    # of the exact value, so rooted operands give a rational oracle.
    if all(op.root is not None for op in operands):
        return rational_oracle(image(*(op.enclosure for op in operands)).lo)
    return node_oracle(operands, image, label, split)


# Precision splits (see node_oracle): widths add under + and -, and
# w(XY) <= wX * max|Y| + wY * max|X|.

def _same(bits, x):
    return (bits,)


def _halves(bits, x, y):
    return (bits + 1, bits + 1)


def _by_magnitude(bits, x, y):
    return (bits + 1 + mag_bits(y), bits + 1 + mag_bits(x))


def o_neg(x: Oracle) -> Oracle:
    return _node((x,), RInterval.neg, f"-({x.label})", _same)


def o_add(x: Oracle, y: Oracle) -> Oracle:
    return _node((x, y), RInterval.add, f"({x.label} + {y.label})", _halves)


def o_sub(x: Oracle, y: Oracle) -> Oracle:
    return _node((x, y), RInterval.sub, f"({x.label} - {y.label})", _halves)


def o_mul(x: Oracle, y: Oracle) -> Oracle:
    return _node((x, y), RInterval.mul, f"({x.label} * {y.label})", _by_magnitude)


def o_abs(x: Oracle) -> Oracle:
    return _node((x,), RInterval.absolute, f"|{x.label}|", _same)


# Operator sugar on every oracle; oracle.py cannot import this module.
Oracle.__neg__, Oracle.__add__, Oracle.__sub__ = o_neg, o_add, o_sub
Oracle.__mul__, Oracle.__abs__ = o_mul, o_abs


def o_recip(x: Oracle, witness: RInterval) -> Oracle:
    """Reciprocal of x, given a witness: a Yes interval of x excluding 0.

    The node of ``apply(recip_extension(witness), x)``, labelled ``1/(x)``.
    It raises :class:`ZeroWitnessInvalid` on a witness containing zero, and
    where ``apply`` raises: unless x decides the witness ``YES`` within a
    bounded check.
    """
    if witness.lo <= 0 <= witness.hi:
        raise ZeroWitnessInvalid(f"witness {witness} contains 0")
    return _claimed(recip_extension(witness), x, ZeroWitnessInvalid, f"1/({x.label})")


def compare(x: Oracle, y: Oracle, budget: Budget) -> CompareResult:
    """Order two oracles by hunting for disjoint Yes intervals.

    LESS and GREATER are definitive and stable under larger budgets.
    EQUAL_KNOWN is only reported when both roots are known and coincide;
    otherwise equality is never decided and the search ends in UNDECIDED.

    The answer is where x - y lies relative to 0: the cached enclosures
    first, then ``o_sub(x, y).locate(0, budget)``, which spends the budget
    as ``locate`` does on any node and gallops its precision target.
    """
    kx, ky = x.enclosure, y.enclosure
    if kx is not None and ky is not None:
        if not _le(ky.lo, kx.hi):
            return CompareResult.LESS
        if not _le(kx.lo, ky.hi):
            return CompareResult.GREATER
    return _ORDER[o_sub(x, y).locate(_ZERO, budget)]
