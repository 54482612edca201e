"""Refinement algorithms over oracles.

Bisection steps, mediant traversal of the Stern-Brocot tree (which yields
continued-fraction terms and terminates in finitely many steps on rational
targets), best rational approximations with a bounded denominator, and
certified decimal output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .errors import BudgetExhausted, OracleError
from .intervals import RInterval, int_text, target_bits
from .oracle import Budget, Oracle, Placement, QueryResult, _stern_brocot
from .record import Record


class CFExpansion(Record):
    """A continued-fraction prefix with its convergents.

    ``terms[0]`` may be any integer, later terms are at least 1.
    ``exact_terminated`` is set when the traversal landed exactly on the
    number, in which case the last convergent is that rational. ``steps``
    counts the points probed past the integer part (denominator above 1):
    the galloping descent spends at most ``min(t + 1, 2 * t.bit_length())``
    of them on each term t after the first.
    """

    terms: Tuple[int, ...]
    convergents: Tuple[Fraction, ...]
    exact_terminated: bool
    steps: int

    def __str__(self) -> str:
        if len(self.terms) <= 1:
            return str(self.terms[0])
        tail = " ".join(str(t) for t in self.terms[1:])
        return f"{self.terms[0]}; {tail}"


def bisect_step(oracle: Oracle, interval: RInterval, budget: Budget) -> RInterval:
    """One midpoint split of a Yes interval.

    Returns the Yes piece among [lo, mid], [mid, mid], [mid, hi], preferring
    the singleton (a found root). Raises :class:`BudgetExhausted` when a
    sub-query cannot be decided, which happens for derived oracles whenever
    the midpoint hits the number exactly.
    """
    if interval.is_singleton:
        raise ValueError("cannot bisect a singleton")
    mid = interval.midpoint()
    pieces = (
        RInterval(mid, mid),
        RInterval(interval.lo, mid),
        RInterval(mid, interval.hi),
    )
    for piece in pieces:
        answer = oracle.decide(piece, budget)
        if answer is QueryResult.YES:
            return piece
        if answer is QueryResult.EXHAUSTED:
            raise BudgetExhausted(
                f"could not decide {piece} for {oracle.label} within {budget.steps} steps"
            )
    raise OracleError(
        f"no Yes piece when splitting {interval}: input was not a Yes interval "
        f"of {oracle.label}, or the rule violates separation"
    )


def _locate_strict(oracle: Oracle, point: Fraction, budget: Budget) -> Placement:
    placement = oracle.locate(point, budget)
    if placement is Placement.EXHAUSTED:
        raise BudgetExhausted(
            f"locate({point}) on {oracle.label} unresolved within {budget.steps} steps"
        )
    return placement


def _descent(
    oracle: Oracle, budget: Budget, limit: Optional[int] = None
) -> Tuple[int, Iterator[Tuple[int, int, Optional[Placement], Optional[int]]]]:
    # The floor of a width-1 enclosure, and the Stern-Brocot descent from it
    # placed by locate.
    anchor = oracle.refine(Fraction(1), budget)
    if anchor is None:
        raise BudgetExhausted(
            f"no width-1 enclosure of {oracle.label} within {budget.steps} steps"
        )
    floor = math.floor(anchor.lo)
    return floor, _stern_brocot(lambda point: _locate_strict(oracle, point, budget), floor, limit)


def mediant_expand(oracle: Oracle, max_terms: int, budget: Budget) -> CFExpansion:
    """Up to ``max_terms`` continued-fraction terms of the oracle's number.

    The terms are the runs of the galloping Stern-Brocot descent; the probe
    of the floor opens the run of GREATER moves that makes the integer part.
    Landing exactly on a point ends its run there, which gives the canonical
    expansion of the rational.
    """
    if max_terms < 1:
        raise ValueError("need at least one term")
    _, descent = _descent(oracle, budget)
    terms: List[int] = []
    steps = 0
    for p, q, placement, term in descent:
        steps += q > 1
        if term is not None:
            terms.append(term)
            if len(terms) == max_terms:
                break
    exact = placement is Placement.EQUAL
    convergents: List[Fraction] = []
    h, k, h_prev, k_prev = 1, 0, 0, 1
    for term in terms:
        h, k, h_prev, k_prev = term * h + h_prev, term * k + k_prev, h, k
        convergents.append(Fraction(h, k))
    if exact and convergents[-1] != Fraction(p, q):
        raise OracleError(f"continued fraction bookkeeping diverged: {convergents[-1]} != {p}/{q}")
    return CFExpansion(tuple(terms), tuple(convergents), exact, steps)


def best_approx(oracle: Oracle, max_denominator: int, budget: Budget) -> Fraction:
    """The fraction with denominator at most ``max_denominator`` closest to
    the oracle's number.

    The galloping Stern-Brocot descent probes no larger denominator, and
    stops where its next point would. Its frame ends are then the number's
    two Farey neighbours of that order, and the exact midpoint locate picks
    the nearer. So each term costs at most about twice its bit length in
    located points, and the run that the bound cuts short at most about
    twice the bound's. Equidistant ties go to the smaller denominator, then
    the smaller numerator.
    """
    if max_denominator < 1:
        raise ValueError("denominator bound must be at least 1")
    floor, descent = _descent(oracle, budget, max_denominator)
    lo, hi = (floor, 1), (1, 0)
    for p, q, placement, _ in descent:
        if placement is Placement.EQUAL:
            return Fraction(p, q)
        if placement is Placement.GREATER:
            lo = (p, q)
        else:
            hi = (p, q)
    low, high = Fraction(*lo), Fraction(*hi)
    placement = _locate_strict(oracle, (low + high) / 2, budget)
    if placement is Placement.LESS:
        return low
    if placement is Placement.GREATER:
        return high
    # Exactly equidistant: the smaller denominator, then the smaller numerator.
    return min(low, high, key=lambda f: (f.denominator, f.numerator))


class DecimalEnclosure(Record):
    """A printed decimal with a certified error bound.

    The digits are the floor of the value at the last place, so the number
    lies in [printed, printed + 10**-places); the advertised bound of one
    unit in the last place therefore always holds. ``exact`` marks a known
    root whose decimal expansion terminates within the printed places.
    """

    digits_text: str
    places: int
    exact: bool
    value: Fraction

    def __str__(self) -> str:
        text = f"{self.digits_text} ± 1e-{self.places}"
        if self.exact:
            text += " (exact)"
        return text


def _fixed_point(scaled: int, places: int) -> str:
    sign = "-" if scaled < 0 else ""
    body = int_text(abs(scaled))
    if places == 0:
        return sign + body
    body = body.rjust(places + 1, "0")
    return f"{sign}{body[:-places]}.{body[-places:]}"


def _last_place(known: RInterval, scale: int) -> Optional[Tuple[int, bool]]:
    # The floor of the number at the last place, once the enclosure fixes
    # it, and whether that is the number itself (a root that terminates).
    lo = known.lo
    scaled = lo.numerator * scale // lo.denominator
    if known.is_singleton:
        return scaled, lo.numerator * scale % lo.denominator == 0
    hi = known.hi
    if hi.numerator * scale // hi.denominator == scaled:
        return scaled, False
    return None


def to_decimal(oracle: Oracle, digits: int, budget: Budget) -> DecimalEnclosure:
    """Certified decimal enclosure with ``digits`` places after the point.

    Refines, aiming at two guard digits, until the enclosure no longer
    straddles a last-place boundary, all within the one budget; a number
    sitting exactly on such a boundary (with no known root) honestly
    exhausts the budget instead of printing unverifiable digits.
    """
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    scale = 10 ** digits
    got = oracle._settle(_last_place, scale, budget.steps, aim=lambda scale: target_bits(Fraction(1, scale * 100)))
    if got is None:
        raise BudgetExhausted(
            f"enclosure of {oracle.label} does not fix the 1e-{digits} place "
            f"within {budget.steps} steps"
        )
    scaled, exact = got
    return DecimalEnclosure(_fixed_point(scaled, digits), digits, exact, Fraction(scaled, scale))
