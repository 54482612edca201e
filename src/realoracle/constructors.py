"""Concrete oracle constructions.

Rationals, positive n-th roots, zeros bracketed by a sign change, limits of
Cauchy sequences with an explicit convergence modulus, and least upper
bounds of sets given by a monotone upper-bound test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidBounds, InvalidBracket, UnsupportedDomain
from .intervals import (
    RInterval,
    _interval_raw,
    _le,
    _log2_floor,
    _raw_fraction,
    RationalLike,
    as_rational,
    dyadic,
    format_rational,
)
from .oracle import LocateHint, Oracle, Placement, _meet, _stern_brocot
from .record import Record

# Stern-Brocot mediants probed, after the floor of the bracket, when hunting
# a rational root of a zero of an opaque sign. Enough for shallow roots like
# 1/3; deeper and irrational zeros burn the cap and stay unrooted.
_ROOT_PROBE_STEPS = 32


def rational_oracle(q: RationalLike) -> Oracle:
    """The oracle of a rational: an interval is Yes iff it contains ``q``."""
    value = as_rational(q)
    # Every query on a known root is answered from the root itself.
    return Oracle(
        None,
        root=value,
        label=f"rational({format_rational(value)})",
    )


def iroot(m: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if n < 1:
        raise ValueError("root index must be at least 1")
    if m < 0:
        raise ValueError("iroot takes a nonnegative integer")
    if m < 2 or n == 1:
        return m
    if m >> n == 0:  # 2 <= m < 2**n: the root is 1, found with no power
        return 1
    if n == 2:
        return math.isqrt(m)
    # Seed from a float logarithm, 2**-20 high; the check keeps it an
    # overshoot. Above the floor a Newton step falls strictly, and never below
    # it: the mean of n-1 copies of x and m/x**(n-1) is at least the root, and
    # flooring inside the step keeps the floor of that mean. So Newton stops,
    # in a few quadratic steps, exactly at the floor.
    shift = max(0, m.bit_length() - 64)
    lg = (math.log2(m >> shift) + shift) / n
    k = max(0, int(lg) - 52)
    x = (math.ceil(2 ** (lg - k + 2**-20)) + 1) << k
    if x ** n <= m:
        x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x


def _exact_nth_root(q: Fraction, n: int) -> Optional[Fraction]:
    rn = iroot(q.numerator, n)
    if rn ** n != q.numerator:
        return None
    rd = iroot(q.denominator, n)
    if rd ** n != q.denominator:
        return None
    return Fraction(rn, rd)


class _NthRootStream:
    """Dyadic enclosures s/2**k : (s+1)/2**k of the n-th root of num/den, s
    the largest integer with s**n * den <= num * 2**(n*k), for k = 0, 1, ...

    ``seek(k)`` lands on shift k with one integer root. A one-bit step
    builds only the midpoint (2s+1)/2**(k+1), already in lowest terms, and
    keeps the other end: the midpoint is the new lower end iff
    (2s+1)**n * den <= num * 2**(n*(k+1)). For n = 2 that test reads the
    restoring-root remainder R = num*4**k - s**2*den: (4s+1)*den <= 4R, so
    a step costs a few linear integer operations instead of a power.
    """

    def __init__(self, num: int, den: int, n: int):
        self._num, self._den, self._n = num, den, n
        self._shift = -1

    def __iter__(self) -> "_NthRootStream":
        return self

    def __next__(self) -> RInterval:
        shift = self._shift + 1
        if not shift:
            return self.seek(0)
        n, s = self._n, 2 * self._s + 1
        if n == 2:
            # 2s - 1 is 4s' + 1 for the s' of the last step.
            four_r, t = self._r << 2, (2 * s - 1) * self._den
            up = t <= four_r
            self._r = four_r - t if up else four_r
        else:
            up = s ** n * self._den <= self._num << (n * shift)
        mid = _raw_fraction(s, 1 << shift)
        if up:
            self._lo = mid
        else:
            s, self._hi = s - 1, mid
        self._s, self._shift = s, shift
        return _interval_raw(self._lo, self._hi)

    def seek(self, shift: int) -> RInterval:
        scaled = self._num << (self._n * shift)
        s = iroot(scaled // self._den, self._n)
        if self._n == 2:
            self._r = scaled - s * s * self._den
        self._s, self._shift = s, shift
        self._lo, self._hi = dyadic(s, shift), dyadic(s + 1, shift)
        return _interval_raw(self._lo, self._hi)


def nth_root_oracle(n: int, q: RationalLike) -> Oracle:
    """The positive n-th root of a positive rational.

    Every decide and locate is answered by one exact test: a point p > 0
    lies below the root iff p**n < q, and points at or below zero do. The
    root field is present exactly when q is a perfect n-th power of a
    rational, which is decided by integer root extraction on numerator and
    denominator.
    """
    if not isinstance(n, int) or n < 1:
        raise UnsupportedDomain(f"root index must be a positive integer, got {n!r}")
    value = as_rational(q)
    if value <= 0:
        raise UnsupportedDomain(f"n-th roots are defined for positive rationals, got {format_rational(value)}")
    num, den = value.numerator, value.denominator
    root = _exact_nth_root(value, n)

    def hint(point: Fraction) -> Placement:
        if point.numerator <= 0:
            return Placement.GREATER
        lhs = point.numerator ** n * den
        rhs = num * point.denominator ** n
        if lhs < rhs:
            return Placement.GREATER
        if lhs > rhs:
            return Placement.LESS
        return Placement.EQUAL

    return Oracle(
        None if root is not None else lambda: _NthRootStream(num, den, n),
        root=root,
        locate_hint=hint,
        label=f"root({n}, {format_rational(value)})",
    )


class SignFunction(Record):
    """An exactly evaluable sign rule: returns -1, 0, or +1 at any rational.

    ``coeffs`` holds a polynomial's coefficients (low to high) when the rule
    is that polynomial's sign; None for an opaque rule. They are the
    caller's claim that ``eval_sign`` is that polynomial's sign, as "one
    zero in the bracket" is the caller's claim for an opaque rule: they
    count zeros and propose candidates, and only ``eval_sign`` decides.
    """

    eval_sign: Callable[[Fraction], int]
    description: str = "f"
    coeffs: Optional[Tuple[Fraction, ...]] = None


def polynomial_sign(coeffs) -> SignFunction:
    """Sign function of a polynomial with rational coefficients (low to high),
    at p/q the sign of q**n * P(p/q), evaluated in integers."""
    cs = tuple(as_rational(c) for c in coeffs)
    high = _cleared(cs[::-1])

    def sign(point: Fraction) -> int:
        value = _homogeneous(high, point.numerator, point.denominator)
        return (value > 0) - (value < 0)

    terms = ", ".join(format_rational(c) for c in cs)
    return SignFunction(sign, f"poly[{terms}]", cs)


def _cleared(poly: Sequence[Fraction]) -> List[int]:
    # The polynomial times the least common denominator of its coefficients.
    scale = math.lcm(*(c.denominator for c in poly))
    return [c.numerator * (scale // c.denominator) for c in poly]


def _homogeneous(poly: Sequence[int], p: int, q: int) -> int:
    """q**n * P(p/q) for integer coefficients high to low, n = len(poly) - 1."""
    acc, scale = 0, 1
    for c in poly:
        acc = acc * p + c * scale
        scale *= q
    return acc


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of ``|b[0]|**(len(a) - len(b) + 1) * a`` by
    ``b``, in integers, coefficients high to low, ``b[0]`` nonzero. The
    factor is positive, so both are positive multiples of those of exact
    division. The remainder has no leading zeros."""
    lead, sign = abs(b[0]), (b[0] > 0) - (b[0] < 0)
    a, quotient = list(a), []
    while len(a) >= len(b):
        f = a[0] * sign
        quotient = [c * lead for c in quotient] + [f]
        a = [lead * x - f * y for x, y in zip(a[1:], b[1:])] + [lead * x for x in a[len(b):]]
    while a and not a[0]:
        a.pop(0)
    return quotient, a


def _primitive(poly: List[int]) -> List[int]:
    # The polynomial over the gcd of its coefficients, a positive divisor.
    content = math.gcd(*poly)
    return [c // content for c in poly]


def _distinct_zeros(coeffs: Tuple[Fraction, ...], lo: Fraction, hi: Fraction) -> Tuple[Optional[int], List[int]]:
    """How many distinct real zeros the polynomial (coefficients low to high)
    has in [lo, hi], None for the zero polynomial; and its square-free part
    as a primitive integer polynomial, high to low.

    Sturm's theorem in integers (Collins' primitive remainder sequence):
    the sequence p, p', -rem, ... divided by its last member is the Sturm
    sequence of p's square-free part, whose sign variations fall by one at
    each zero, from left to right, and not at lo when it is a zero. Each
    member is a positive multiple of the exact one: pseudo-division scales
    by a positive power and division by the content keeps the sign.
    """
    p = _cleared(coeffs[::-1])
    while p and not p[0]:
        p.pop(0)
    if not p:
        return None, p
    degree = len(p) - 1
    chain = [_primitive(p), _primitive([c * (degree - i) for i, c in enumerate(p[:-1])])]
    while chain[-1]:
        chain.append(_primitive([-c for c in _pseudo_divmod(chain[-2], chain[-1])[1]]))
    chain.pop()
    last = chain[-1]
    if len(last) > 1:  # p has a multiple zero: divide its factor out
        chain = [_primitive(_pseudo_divmod(poly, last)[0]) for poly in chain]
    else:  # a primitive constant is 1 or -1
        chain = [[c * last[0] for c in poly] for poly in chain]

    def variations(x: Fraction) -> int:
        values = [v for v in (_homogeneous(poly, x.numerator, x.denominator) for poly in chain) if v]
        return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))

    return variations(lo) - variations(hi) + (not _homogeneous(chain[0], lo.numerator, lo.denominator)), chain[0]


class _Bisection:
    """Halve lo:hi for ever, steered by the placement of the midpoint:
    GREATER and EQUAL move lo there, anything but GREATER (None is "at
    most mid") moves hi; EQUAL gives the singleton, the oracle's root.
    Cell j at depth k is lo + w*j/2**k : lo + w*(j+1)/2**k, w = hi - lo.

    ``seek(bits)`` lands on the cell one-bit steps reach at that precision.
    Given the ``squarefree`` polynomial of the zero (integers, high to low),
    a Newton step from the midpoint proposes a deep cell, but only ``place``
    decides: it is taken if GREATER at its left end and LESS at its right,
    an EQUAL end is the root, and else one bisection step follows.
    """

    def __init__(self, lo: Fraction, hi: Fraction, place: LocateHint,
                 squarefree: Optional[Sequence[int]] = None):
        width = hi - lo
        self._newton: Optional[Tuple[Sequence[int], List[int]]] = None
        if squarefree is not None:
            n = len(squarefree) - 1
            self._newton = squarefree, [c * (n - i) for i, c in enumerate(squarefree[:-1])]
        self._den = math.lcm(lo.denominator, width.denominator)
        self._lo, self._width = _cleared((lo, width))
        self._offset = _log2_floor(width.denominator, width.numerator)  # precision at depth 0
        # A step from depth k aims at depth 2k - margin. The margin covers the
        # curvature of the polynomial and doubles with each failed proposal.
        self._place, self._margin = place, 4
        # A root is a singleton of infinite depth, as its oracle.precision.
        self._depth, self._j, self._ends = -1, 0, (lo, hi)

    def __iter__(self) -> "_Bisection":
        return self

    def __next__(self) -> RInterval:
        if self._depth < 0:
            self._depth = 0
        elif self._depth < math.inf:
            self._bisect()
        return _interval_raw(*self._ends)

    def seek(self, bits: int) -> RInterval:
        goal = bits - self._offset
        while self._depth < goal:
            depth = min(goal, 2 * self._depth - self._margin)
            if self._newton is None or depth < self._depth + 2 or not self._jump(depth):
                self._bisect()
        return _interval_raw(*self._ends)

    def _point(self, j: int, depth: int) -> Fraction:
        num, den = (self._lo << depth) + self._width * j, self._den << depth
        return dyadic(num, den.bit_length() - 1) if den & (den - 1) == 0 else Fraction(num, den)

    def _bisect(self) -> None:
        self._depth, self._j = self._depth + 1, 2 * self._j
        mid = self._point(self._j + 1, self._depth)
        where = self._place(mid)
        if where is Placement.EQUAL:
            self._ends, self._depth = (mid, mid), math.inf
        elif where is Placement.GREATER:
            self._j, self._ends = self._j + 1, (mid, self._ends[1])
        else:
            self._ends = (self._ends[0], mid)

    def _jump(self, depth: int) -> bool:
        poly, slope = self._newton
        u, e = 2 * self._j + 1, self._depth + 1
        p, q = (self._lo << e) + self._width * u, self._den << e
        value, derivative = _homogeneous(poly, p, q), _homogeneous(slope, p, q) * self._width
        # x - S(x)/S'(x) at the midpoint x = p/q, floored onto the grid of depth.
        j = ((u * derivative - value) << (depth - e)) // derivative if derivative else -1
        if 0 <= j < 1 << depth:
            ends = self._point(j, depth), self._point(j + 1, depth)
            at = self._place(ends[0]), self._place(ends[1])
            if Placement.EQUAL in at:
                root = ends[at.index(Placement.EQUAL)]
                self._ends, self._depth = (root, root), math.inf
                return True
            if at == (Placement.GREATER, Placement.LESS):
                self._ends, self._j, self._depth = ends, j, depth
                return True
        self._margin *= 2
        return False


def _rational_zero(lo: Fraction, hi: Fraction, place: LocateHint, squarefree: Sequence[int]) -> Optional[Fraction]:
    """The zero that ``place`` brackets in lo:hi if it is rational, else None.

    A rational zero of the integer polynomial ``squarefree``, leading
    coefficient a, is a multiple of 1/|a| (the rational-root theorem).
    Bisection certifies a cell of width at most 1/|a| whose open interior
    holds the zero, so the one multiple inside it, if any, is the only
    candidate: one ``place`` call decides it.
    """
    a = abs(squarefree[0])
    cells = _Bisection(lo, hi, place, squarefree)
    next(cells)  # depth 0, the bracket: a seek starts from there
    cell = cells.seek((a - 1).bit_length())
    if cell.is_singleton:
        return cell.lo
    candidate = Fraction(cell.lo.numerator * a // cell.lo.denominator + 1, a)
    if _le(cell.hi, candidate) or place(candidate) is not Placement.EQUAL:
        return None
    return candidate


def ivt_oracle(f: SignFunction, a: RationalLike, b: RationalLike) -> Oracle:
    """The zero of a function bracketed by a sign change on [a, b].

    Requires the endpoint signs to differ or vanish, and exactly one zero
    in the bracket: a Sturm sequence counts the distinct zeros of a
    :func:`polynomial_sign`, and for other sign functions the caller
    asserts it. A subinterval x:y of the bracket is Yes iff
    sign(f(x)) * sign(f(y)) <= 0; intervals beyond the bracket inherit
    their answer from the piece they share with it.

    The zero of a polynomial sign is the root iff it is rational: the
    rational-root test takes one candidate from ``f.coeffs``, and one call
    of ``f.eval_sign`` decides it. An opaque sign's zero is the root when a
    Stern-Brocot probe of ``_ROOT_PROBE_STEPS`` mediants reaches it.
    """
    lo, hi = as_rational(a), as_rational(b)
    if lo >= hi:
        raise InvalidBracket(f"bracket must satisfy a < b, got {format_rational(lo)} >= {format_rational(hi)}")
    sign_lo = f.eval_sign(lo)
    sign_hi = f.eval_sign(hi)
    if sign_lo != 0 and sign_lo == sign_hi:
        raise InvalidBracket(
            f"no sign change: sign at both ends of {format_rational(lo)}:{format_rational(hi)} is {sign_lo:+d}"
        )
    bracket = RInterval(lo, hi)
    squarefree: Optional[List[int]] = None
    if f.coeffs is not None:
        zeros, squarefree = _distinct_zeros(f.coeffs, lo, hi)
        if zeros != 1:
            count = "infinitely many" if zeros is None else zeros
            raise InvalidBracket(f"{f.description} has {count} distinct zeros in {bracket}, not one")

    def place(point: Fraction) -> Placement:
        # Inside the bracket the sign alone places the one zero.
        s = f.eval_sign(point)
        if s == 0:
            return Placement.EQUAL
        return Placement.GREATER if s == sign_lo else Placement.LESS

    def hint(point: Fraction) -> Placement:
        if not _le(lo, point):
            return Placement.GREATER
        if not _le(point, hi):
            return Placement.LESS
        return place(point)

    root: Optional[Fraction]
    if sign_lo == 0:
        root = lo
    elif sign_hi == 0:
        root = hi
    elif squarefree is None:
        # A rational zero within the probe's reach is where the descent lands.
        items = itertools.islice(_stern_brocot(hint, math.floor(lo)), _ROOT_PROBE_STEPS + 1)
        root = next((_raw_fraction(p, q) for p, q, at in items if at is Placement.EQUAL), None)
    else:
        root = _rational_zero(lo, hi, place, squarefree)

    return Oracle(
        lambda: _Bisection(lo, hi, place, squarefree),
        root=root,
        locate_hint=hint,
        label=f"zero({f.description} on {bracket})",
    )


class CauchySpec(Record):
    """A Cauchy sequence with an explicit modulus of convergence.

    ``modulus(eps)`` returns an index N such that any two terms at indices
    >= N differ by at most eps. ``known_limit`` supplies the rational limit
    when there is one; without it the limit's own singleton is undecidable
    from tail enclosures alone.
    """

    term: Callable[[int], Fraction]
    modulus: Callable[[Fraction], int]
    known_limit: Optional[Fraction] = None


def _tail_enclosure(spec: CauchySpec, eps: Fraction) -> RInterval:
    index = spec.modulus(eps)
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"modulus must return a nonnegative index, got {index!r}")
    center = as_rational(spec.term(index))
    return RInterval(center - eps, center + eps)


def cauchy_tail_enclosures(spec: CauchySpec) -> Iterator[RInterval]:
    """Tail enclosures [term(N(eps)) - eps, term(N(eps)) + eps] for eps = 1, 1/2, ..."""
    return (_tail_enclosure(spec, dyadic(1, level)) for level in itertools.count())


class _CauchyTail:
    """The running intersection of the tail enclosures at eps = 2**-level,
    level = 0, 1, ...; ``seek(k)`` reaches width ``2**-k`` with one modulus
    and one term call, at level k + 1, and never evaluates the levels it skips.
    """

    def __init__(self, spec: CauchySpec):
        self._spec, self._level, self._running = spec, -1, None

    def __iter__(self) -> "_CauchyTail":
        return self

    def __next__(self) -> RInterval:
        return self.seek(self._level)

    def seek(self, k: int) -> RInterval:
        self._level = max(k, self._level) + 1
        self._running = _meet(self._running, _tail_enclosure(self._spec, dyadic(1, self._level)))
        return self._running


def cauchy_oracle(spec: CauchySpec) -> Oracle:
    """Limit of a Cauchy sequence, via its tail enclosures.

    A target pull seeks straight to the tail enclosure it needs. A wrong
    modulus is unmasked as :class:`~realoracle.errors.InvalidFonsi` the
    moment two evaluated tail enclosures fail to intersect.
    """
    limit = spec.known_limit
    label = "cauchy" if limit is None else f"cauchy(limit={format_rational(limit)})"
    return Oracle(lambda: _CauchyTail(spec), root=limit, label=label)


class UpperBoundTest(Record):
    """A nonempty set bounded above, described by a monotone test.

    ``is_ub(u)`` decides whether u bounds the set from above; it must be
    monotone (once true, true for everything larger). ``seed_member`` is
    any point known to be at most the least upper bound, ``seed_bound`` a
    point known to be an upper bound.
    """

    is_ub: Callable[[Fraction], bool]
    seed_member: Fraction
    seed_bound: Fraction


def lub_oracle(test: UpperBoundTest) -> Oracle:
    """Least upper bound of the set described by ``test``.

    A point that is not an upper bound lies below the lub, at no budget;
    whether an upper bound is the least one bisection can refute but never
    confirm. So an interval is Yes outright when its upper end is an upper
    bound and its lower end is not, and singleton queries at upper bounds
    stay Exhausted unless a root is known.
    """
    member = as_rational(test.seed_member)
    bound = as_rational(test.seed_bound)
    if not test.is_ub(bound):
        raise InvalidBounds(f"seed bound {format_rational(bound)} fails its own upper-bound test")
    if member > bound:
        raise InvalidBounds(f"seed member {format_rational(member)} lies above "
                            f"the seed bound {format_rational(bound)}")
    # A member-side point that already bounds the set is the lub itself.
    root = member if test.is_ub(member) else None

    def hint(point: Fraction) -> Optional[Placement]:
        return None if test.is_ub(point) else Placement.GREATER

    return Oracle(
        lambda: _Bisection(member, bound, hint),
        root=root,
        locate_hint=hint,
        label=f"lub(seeds {format_rational(member)}, {format_rational(bound)})",
    )
