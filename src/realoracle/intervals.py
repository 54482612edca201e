"""Exact rational scalars and inclusive rational intervals.

Everything in this module is exact: scalars are arbitrary-precision
fractions, and intervals are closed with rational endpoints. One operation
rounds: ``round_out`` widens an interval outward onto a dyadic grid, so a
node's enclosure keeps endpoints as short as its precision needs and still
holds its number. Decimal presentation lives in :mod:`realoracle.refine`.

The module also houses a few fast constructors for dyadic fractions
(denominator a power of two). Refinement streams bisect, so their endpoint
denominators are powers of two with many thousands of bits at deep budgets;
the stock ``Fraction`` constructor would run a full gcd there, which is the
dominant cost. Canonical form is preserved: only factors of two are ever
cancelled, and dyadic numerators are reduced to odd-or-small first.

Interval endpoints are always ``Fraction`` objects, and only this module
knows their layout: every private endpoint primitive takes ``Fraction``
objects and reads their two slots, not the ``numerator`` and
``denominator`` properties, and builds a result with ``object.__new__``,
without running ``Fraction``'s constructor. ``_le`` is the one order test.
Dyadic sums and products are integer sums and products of the parts,
through ``dyadic``; a non-dyadic sum is ``Fraction``'s own, and a
non-dyadic product is cross-cancelled as ``Fraction`` does. A reciprocal
swaps the parts. A width is an unreduced integer pair (``_width_ratio``),
from which ``precision`` and the narrow check read an interval's bits
without a width ``Fraction``. Public entries such as ``RInterval.contains``
coerce other rationals with ``as_rational`` first.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import gcd, inf
from typing import Optional, Tuple, Union

from .errors import ZeroInDenominator
from .record import Record

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats are rejected: silently converting a float would smuggle binary
    rounding into a library whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form "p" or "p/q" (q a positive integer)."""
    s = text.strip().replace("−", "-")
    num, sep, den = s.partition("/")
    try:
        n = int(num)
    except ValueError:
        raise ValueError(f"bad rational literal: {text!r}") from None
    if not sep:
        return Fraction(n)
    try:
        d = int(den)
    except ValueError:
        raise ValueError(f"bad rational literal: {text!r}") from None
    if d <= 0:
        raise ValueError(f"denominator must be a positive integer: {text!r}")
    return Fraction(n, d)


def format_rational(q: Fraction) -> str:
    """Canonical text form: "p/q", with "/q" omitted when q is 1."""
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


def int_text(n: int) -> str:
    """``str(n)`` for any size of int: ``str`` refuses ints past the
    interpreter's digit limit, ``Decimal`` formats them in full."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


# -- fast fraction plumbing --------------------------------------------------

def _raw_fraction(num: int, den: int) -> Fraction:
    # Caller guarantees canonical form: den > 0, gcd(|num|, den) == 1.
    # Allocates without running Fraction's constructor and fills its private
    # slots directly; tests/test_intervals.py pins that the result equals
    # Fraction(num, den) on every supported Python.
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def dyadic(num: int, shift: int) -> Fraction:
    """``num / 2**shift`` in canonical form, cancelling only factors of two."""
    if num == 0:
        return _ZERO
    if shift <= 0:
        return _raw_fraction(num << (-shift), 1) if shift else _raw_fraction(num, 1)
    tz = (num & -num).bit_length() - 1
    r = tz if tz < shift else shift
    return _raw_fraction(num >> r, 1 << (shift - r))


def _q_neg(a: Fraction) -> Fraction:
    return _raw_fraction(-a._numerator, a._denominator)


def _q_add(a: Fraction, b: Fraction) -> Fraction:
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    if da & (da - 1) or db & (db - 1):
        return a + b
    ka, kb = da.bit_length() - 1, db.bit_length() - 1
    if ka >= kb:
        return dyadic((nb << (ka - kb)) + na, ka)
    return dyadic((na << (kb - ka)) + nb, kb)


def _q_sub(a: Fraction, b: Fraction) -> Fraction:
    return _q_add(a, _q_neg(b))


def _q_mul(a: Fraction, b: Fraction) -> Fraction:
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    if not (da & (da - 1) or db & (db - 1)):
        return dyadic(na * nb, da.bit_length() + db.bit_length() - 2)
    # Fraction's own product, cross-cancelled, without its operator dispatch.
    g1, g2 = gcd(na, db), gcd(nb, da)
    return _raw_fraction((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _q_recip(a: Fraction) -> Fraction:
    # a != 0; swapping the parts keeps them coprime.
    n, d = a._numerator, a._denominator
    return _raw_fraction(d, n) if n > 0 else _raw_fraction(-d, -n)


def _le(a: Fraction, b: Fraction) -> bool:
    # a <= b by one cross-multiplication, without Fraction's operator dispatch.
    return a._numerator * b._denominator <= b._numerator * a._denominator


def _q_half(a: Fraction) -> Fraction:
    n, d = a._numerator, a._denominator
    if n & 1:
        return _raw_fraction(n, d << 1)
    return _raw_fraction(n >> 1, d)


def _grid_floor(n: int, d: int, shift: int) -> int:
    # floor(n / d * 2**shift), by a shift when d is a power of two.
    return (n << shift) // d if d & (d - 1) else n >> (d.bit_length() - 1 - shift)


def _width_ratio(lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """``hi - lo`` as an unreduced ``(num, den)`` pair; ``den`` is a power
    of two when both endpoints are dyadic."""
    a, b, c, d = lo._numerator, lo._denominator, hi._numerator, hi._denominator
    if b == d:
        return c - a, b
    if b & (b - 1) or d & (d - 1):
        return c * b - a * d, b * d
    if b < d:
        return c - (a << (d.bit_length() - b.bit_length())), d
    return (c << (b.bit_length() - d.bit_length())) - a, b


def _log2_floor(num: int, den: int) -> int:
    """floor(log2(num / den)) for positive integers, with no big shifts."""
    e = num.bit_length() - den.bit_length()
    at_least = num >> e >= den if e >= 0 else num >= -(-den >> -e)
    return e if at_least else e - 1


def target_bits(width: Fraction) -> int:
    """The least ``bits`` with ``2**-bits`` at most the positive ``width``."""
    return -_log2_floor(width.numerator, width.denominator)


def precision(interval: RInterval) -> float:
    """The largest ``bits`` with width at most ``2**-bits``; inf for a point.
    Read from the endpoint integers, with no width ``Fraction``."""
    num, den = _width_ratio(interval.lo, interval.hi)
    if not num:
        return inf
    if den & (den - 1):
        return _log2_floor(den, num)
    return den.bit_length() - 1 - (num - 1).bit_length()


def mag_bits(interval: RInterval) -> int:
    """The least ``e`` with every point of the interval at most ``2**e`` in
    magnitude (0 for the point 0)."""
    lo, hi = interval.lo, interval.hi
    num, den = (hi._numerator, hi._denominator) if _le(_q_neg(lo), hi) else (-lo._numerator, lo._denominator)
    if not num:
        return 0
    return -_log2_floor(den, num)


def round_out(interval: RInterval, shift: int) -> RInterval:
    """``interval`` with ``lo`` floored and ``hi`` ceiled onto the
    ``2**-shift`` grid (``shift >= 0``), keeping an endpoint whose
    denominator is at most ``2**shift``. Each end moves less than a step;
    ``interval`` itself comes back when neither moves."""
    lo, hi = interval.lo, interval.hi
    if (lo._denominator - 1).bit_length() > shift:
        lo = dyadic(_grid_floor(lo._numerator, lo._denominator, shift), shift)
    if (hi._denominator - 1).bit_length() > shift:
        hi = dyadic(-_grid_floor(-hi._numerator, hi._denominator, shift), shift)
    return interval if lo is interval.lo and hi is interval.hi else _interval_raw(lo, hi)


def _narrow_verdict(known: RInterval, width: Fraction) -> Optional[RInterval]:
    num, den = _width_ratio(known.lo, known.hi)
    return known if num * width._denominator <= width._numerator * den else None


def _interval_raw(lo: Fraction, hi: Fraction) -> "RInterval":
    # Trusted constructor: caller guarantees lo <= hi. Skips the ordering
    # check, whose cross-multiplication dominates deep refinement streams.
    iv = object.__new__(RInterval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


# -- intervals ---------------------------------------------------------------

class IntervalRelation(Enum):
    SUBSET = "subset"
    SUPERSET = "superset"
    EQUAL = "equal"
    OVERLAP_ONLY = "overlap-only"
    DISJOINT = "disjoint"


class ArithOp(Enum):
    ADD = "add"
    NEG = "neg"
    MUL = "mul"
    RECIP = "recip"


class RInterval(Record):
    """Inclusive rational interval. ``lo == hi`` is a singleton.

    Direct construction requires ``lo <= hi``; use :func:`interval_make`
    when the endpoints arrive in unknown order.
    """

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: RationalLike, hi: RationalLike):
        lo, hi = as_rational(lo), as_rational(hi)
        if not _le(lo, hi):
            raise ValueError(f"misordered interval endpoints: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- structure

    @property
    def width(self) -> Fraction:
        return _q_sub(self.hi, self.lo)

    @property
    def is_singleton(self) -> bool:
        # Endpoints are in lowest terms, so equal values have equal parts.
        lo, hi = self.lo, self.hi
        return lo._numerator == hi._numerator and lo._denominator == hi._denominator

    def contains(self, q: RationalLike) -> bool:
        q = as_rational(q)
        return _le(self.lo, q) and _le(q, self.hi)

    def encloses(self, other: "RInterval") -> bool:
        return _le(self.lo, other.lo) and _le(other.hi, self.hi)

    def intersects(self, other: "RInterval") -> bool:
        return _le(other.lo, self.hi) and _le(self.lo, other.hi)

    def intersection(self, other: "RInterval") -> Optional["RInterval"]:
        lo = self.lo if _le(other.lo, self.lo) else other.lo
        hi = self.hi if _le(self.hi, other.hi) else other.hi
        if not _le(lo, hi):
            return None
        return _interval_raw(lo, hi)

    def relate(self, other: "RInterval") -> IntervalRelation:
        fwd = other.encloses(self)
        bwd = self.encloses(other)
        if fwd and bwd:
            return IntervalRelation.EQUAL
        if fwd:
            return IntervalRelation.SUBSET
        if bwd:
            return IntervalRelation.SUPERSET
        if self.intersects(other):
            return IntervalRelation.OVERLAP_ONLY
        return IntervalRelation.DISJOINT

    def midpoint(self) -> Fraction:
        return _q_half(_q_add(self.lo, self.hi))

    # -- exact image arithmetic

    def add(self, other: "RInterval") -> "RInterval":
        return _interval_raw(_q_add(self.lo, other.lo), _q_add(self.hi, other.hi))

    def neg(self) -> "RInterval":
        return _interval_raw(_q_neg(self.hi), _q_neg(self.lo))

    def sub(self, other: "RInterval") -> "RInterval":
        return _interval_raw(_q_sub(self.lo, other.hi), _q_sub(self.hi, other.lo))

    def mul(self, other: "RInterval") -> "RInterval":
        # Moore's sign cases: two products, or four when both straddle zero.
        a, b = self.lo, self.hi
        c, d = other.lo, other.hi
        if a._numerator >= 0:
            return _interval_raw(_q_mul(a if c._numerator >= 0 else b, c), _q_mul(b if d._numerator >= 0 else a, d))
        if b._numerator <= 0:
            return _interval_raw(_q_mul(a if d._numerator >= 0 else b, d), _q_mul(b if c._numerator >= 0 else a, c))
        if c._numerator >= 0:
            return _interval_raw(_q_mul(a, d), _q_mul(b, d))
        if d._numerator <= 0:
            return _interval_raw(_q_mul(b, c), _q_mul(a, c))
        lo, hi, p, q = _q_mul(a, d), _q_mul(a, c), _q_mul(b, c), _q_mul(b, d)
        return _interval_raw(p if _le(p, lo) else lo, q if _le(hi, q) else hi)

    def recip(self) -> "RInterval":
        lo, hi = self.lo, self.hi
        if lo._numerator <= 0 <= hi._numerator:
            raise ZeroInDenominator(f"cannot invert {self}: it contains 0")
        return _interval_raw(_q_recip(hi), _q_recip(lo))

    def absolute(self) -> "RInterval":
        lo, hi = self.lo, self.hi
        if lo._numerator <= 0 <= hi._numerator:
            return _interval_raw(_ZERO, hi if _le(_q_neg(lo), hi) else _q_neg(lo))
        if hi._numerator < 0:
            return self.neg()
        return self

    def __str__(self) -> str:
        return f"{format_rational(self.lo)}:{format_rational(self.hi)}"


def interval_make(x: RationalLike, y: RationalLike) -> RInterval:
    """Build the interval on two endpoints given in either order."""
    a, b = as_rational(x), as_rational(y)
    return _interval_raw(a, b) if _le(a, b) else _interval_raw(b, a)


def interval_contains(interval: RInterval, q: RationalLike) -> bool:
    return interval.contains(q)


def interval_relate(a: RInterval, b: RInterval) -> IntervalRelation:
    return a.relate(b)


def interval_intersection(a: RInterval, b: RInterval) -> Optional[RInterval]:
    return a.intersection(b)


def interval_arith(op: ArithOp, a: RInterval, b: Optional[RInterval] = None) -> RInterval:
    """Dispatch exact interval arithmetic by operation tag."""
    if op is ArithOp.ADD:
        if b is None:
            raise ValueError("add needs a second interval")
        return a.add(b)
    if op is ArithOp.NEG:
        return a.neg()
    if op is ArithOp.MUL:
        if b is None:
            raise ValueError("mul needs a second interval")
        return a.mul(b)
    if op is ArithOp.RECIP:
        return a.recip()
    raise ValueError(f"unknown operation {op!r}")


def parse_interval(text: str) -> RInterval:
    """Parse the "lo:hi" text form; order-free like :func:`interval_make`."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"bad interval literal (want lo:hi): {text!r}")
    return interval_make(parse_rational(lo), parse_rational(hi))


def format_interval(interval: RInterval) -> str:
    return str(interval)
