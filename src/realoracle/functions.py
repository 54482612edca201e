"""Function oracles: rules over base/wall rectangles, and application.

A function oracle answers Yes to a rectangle when the image of the base
lies inside the wall. Here one is supplied as a sound interval extension
plus a modulus relating wall width to base width; the rectangle rule is
derived, countering the extension's overestimation by subdividing the base.
Applying a function oracle to a real oracle composes the extension with the
argument's refinement stream.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .constructors import rational_oracle
from .errors import DomainEscape, OracleError, ZeroInDenominator
from .intervals import RInterval, _q_mul, as_rational, dyadic, format_rational, target_bits
from .oracle import Budget, Oracle, QueryResult, node_oracle
from .record import Record


class Rectangle(Record):
    base: RInterval
    wall: RInterval


class FunctionOracle(Record):
    """A function presented at interval level.

    ``extension`` maps a base interval to an enclosure of its true image;
    it must be sound (image contained) and inclusion-monotone, with wall
    widths shrinking as base widths do. ``modulus(width, within)`` returns
    a base width guaranteeing extension output no wider than ``width`` for
    bases inside ``within``; a refinement that finds a modulus breaking
    this raises :class:`OracleError`. ``point`` evaluates the function
    exactly at a rational when that is possible, enabling definitive No
    answers and rooted results. ``domain`` is a region the argument of
    :func:`apply` must decide Yes, and :func:`rect_decide` refuses a base
    outside it; None means everywhere.
    """

    extension: Callable[[RInterval], RInterval]
    modulus: Callable[[Fraction, RInterval], Fraction]
    point: Optional[Callable[[Fraction], Fraction]] = None
    domain: Optional[RInterval] = None
    description: str = "f"


def rect_decide(fn: FunctionOracle, rect: Rectangle, budget: Budget) -> QueryResult:
    """Does the image of the rectangle's base fit inside its wall?

    Yes once every piece of a budgeted base subdivision extends into the
    wall; No as soon as an exact point evaluation escapes it; Exhausted
    when the budget runs out first.
    """
    base, wall = rect.base, rect.wall
    if fn.domain is not None and not fn.domain.encloses(base):
        raise DomainEscape(
            f"base {base} is not inside the domain {fn.domain} of {fn.description}"
        )

    def escapes(t: Fraction) -> bool:
        return fn.point is not None and not wall.contains(fn.point(t))

    if escapes(base.lo) or escapes(base.hi):
        return QueryResult.NO
    pending: List[RInterval] = [base]
    steps = budget.steps
    while pending:
        piece = pending.pop()
        if wall.encloses(fn.extension(piece)):
            continue
        if piece.is_singleton:
            # Only a point base has point pieces, and escapes(base.lo) passed.
            if fn.point is None:
                return QueryResult.EXHAUSTED
            continue
        mid = piece.midpoint()
        if escapes(mid):
            return QueryResult.NO
        if steps <= 0:
            return QueryResult.EXHAUSTED
        steps -= 1
        pending.append(RInterval(piece.lo, mid))
        pending.append(RInterval(mid, piece.hi))
    return QueryResult.YES


# Bounds the one check of a claimed region: the operand must decide it Yes
# within this many steps. So a true region is refused when it ends exactly
# at an unrooted number, or within about 2**-62 of a node's number.
_CHECK_BUDGET = Budget(64)


def _claimed(fn: FunctionOracle, x: Oracle, escape: type, label: str) -> Oracle:
    """The node of f(x), for x in ``fn.domain`` (None: anywhere).

    The region must be a Yes interval of x: x decides it ``YES`` within the
    check budget, or ``escape`` is raised, naming the answer. Then x lies in
    the region and in each of its enclosures, so the image is the extension
    of their intersection, which is sound whatever its width. A Yes on a
    one-point region roots x there, and the result is then exact.
    """
    region = fn.domain
    if region is not None:
        answer = x.decide(region, _CHECK_BUDGET)
        if answer is not QueryResult.YES:
            said = "decided No" if answer is QueryResult.NO else f"not decided Yes within {_CHECK_BUDGET.steps} steps"
            raise escape(f"the region {region} claimed for {fn.description} is {said} by {x.label}")
    root = x.root
    if root is not None and fn.point is not None:
        return rational_oracle(fn.point(root))

    def image(got: RInterval) -> RInterval:
        if region is not None:
            got = got.intersection(region)
            if got is None:  # only an operand that contradicts its own Yes
                raise escape(f"{x.label} refines outside the region {region} it decided Yes for {fn.description}")
        return fn.extension(got)

    def split(bits: int, got: RInterval) -> Tuple[int]:
        # Bases lie in the region, or else in x's enclosure, and are never
        # wider than x's enclosure.
        base = fn.modulus(dyadic(1, bits), got if region is None else region)
        base = base if isinstance(base, Fraction) else Fraction(base)
        if base.numerator <= 0:
            raise OracleError(f"modulus of {fn.description} gave the base width {base}, not a positive one")
        return (target_bits(base),)

    return node_oracle((x,), image, label, split)


def apply(fn: FunctionOracle, x: Oracle) -> Oracle:
    """The oracle of f(x): walls of Yes rectangles whose base holds x.

    The result refines by extending x's refinements, and is rooted at
    ``fn.point(root)`` when x is rooted and f has a ``point``. The domain
    must be a Yes interval of x: construction raises :class:`DomainEscape`
    unless x decides it ``YES`` within a bounded check (see ``_claimed``).
    The image is then the extension of x's enclosure intersected with the
    domain.
    """
    return _claimed(fn, x, DomainEscape, f"{fn.description}({x.label})")


def _horner_interval(coeffs, base: RInterval) -> RInterval:
    acc = RInterval(coeffs[-1], coeffs[-1])
    for c in reversed(coeffs[:-1]):
        point = RInterval(c, c)
        acc = acc.mul(base).add(point)
    return acc


def poly_extension(coeffs) -> FunctionOracle:
    """Interval extension of a polynomial, coefficients low to high.

    Evaluation is Horner form over exact interval arithmetic. The modulus
    comes from bounding the width growth of each Horner stage on the given
    working region.
    """
    cs = tuple(as_rational(c) for c in coeffs)
    if not cs:
        cs = (Fraction(0),)

    def extension(base: RInterval) -> RInterval:
        return _horner_interval(cs, base)

    def point(t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    def modulus(width: Fraction, within: RInterval) -> Fraction:
        if width <= 0:
            raise ValueError("target width must be positive")
        mag = max(abs(within.lo), abs(within.hi))
        # Each Horner stage widens by at most mag per level plus the
        # magnitude bound of the incoming stage. Summed over the stages that
        # is sum(j * |c_j| * mag**(j - 1)), so base width delta yields output
        # width at most delta * slope.
        slope = sum(j * abs(cs[j]) * mag ** (j - 1) for j in range(1, len(cs)))
        if slope == 0:
            return width
        return width / slope

    terms = ", ".join(format_rational(c) for c in cs)
    return FunctionOracle(extension, modulus, point, None, f"poly[{terms}]")


def recip_extension(domain: RInterval) -> FunctionOracle:
    """x -> 1/x claimed on a zero-free domain; its extension is exact on any zero-free base."""
    if domain.lo <= 0 <= domain.hi:
        raise ZeroInDenominator(f"reciprocal domain {domain} contains 0")
    least = min(abs(domain.lo), abs(domain.hi))
    least_sq = _q_mul(least, least)

    def extension(base: RInterval) -> RInterval:
        return base.recip()

    def point(t: Fraction) -> Fraction:
        return 1 / t

    def modulus(width: Fraction, within: RInterval) -> Fraction:
        if width <= 0:
            raise ValueError("target width must be positive")
        return _q_mul(as_rational(width), least_sq)

    return FunctionOracle(extension, modulus, point, domain, "recip")
