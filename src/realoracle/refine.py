"""Refinement algorithms over oracles.

Bisection steps, mediant traversal of the Stern-Brocot tree (which yields
continued-fraction terms and terminates in finitely many steps on rational
targets), best rational approximations with a bounded denominator, and
certified decimal output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import BudgetExhausted, OracleError
from .intervals import RInterval, int_text
from .oracle import Budget, Oracle, Placement, QueryResult, target_bits


@dataclass(frozen=True)
class CFExpansion:
    """A continued-fraction prefix with its convergents.

    ``terms[0]`` may be any integer, later terms are at least 1.
    ``exact_terminated`` is set when the traversal landed exactly on the
    number, in which case the last convergent is that rational. ``steps``
    counts mediant probes, the quantity bounded by the sum of the terms on
    rational targets.
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


class _MediantWalk:
    """Stern-Brocot descent emitting continued-fraction terms.

    The integer part comes from a locate sweep. The fractional descent
    probes mediants; runs of same-direction moves become terms. Landing
    exactly on a mediant ends the walk with the final term adjusted by one,
    matching the canonical expansion of the rational.
    """

    def __init__(self, oracle: Oracle, budget: Budget):
        self.oracle = oracle
        self.budget = budget
        self.steps = 0
        self.done = False
        self._h_prev: Tuple[int, int] = (1, 0)
        self._h_curr: Optional[Tuple[int, int]] = None
        anchor = oracle.refine(Fraction(1), budget)
        if anchor is None:
            raise BudgetExhausted(
                f"no width-1 enclosure of {oracle.label} within {budget.steps} steps"
            )
        floor = math.floor(anchor.lo)
        first = _locate_strict(oracle, Fraction(floor), budget)
        while first is Placement.GREATER:
            after = _locate_strict(oracle, Fraction(floor + 1), budget)
            if after is Placement.LESS:
                break
            floor += 1
            first = after
        if first is Placement.EQUAL:
            self.done = True
        self._pending_term = floor
        self._frame_lo = (floor, 1)
        self._frame_hi = (floor + 1, 1)
        self._run_dir: Optional[Placement] = Placement.LESS
        self._run_len = 1

    def _emit(self, term: int) -> Tuple[int, Fraction]:
        p1, q1 = self._h_curr if self._h_curr is not None else (term, 1)
        if self._h_curr is None:
            self._h_curr = (term, 1)
        else:
            p0, q0 = self._h_prev
            self._h_prev = self._h_curr
            self._h_curr = (term * p1 + p0, term * q1 + q0)
        return term, Fraction(*self._h_curr)

    def next_term(self) -> Optional[Tuple[int, Fraction]]:
        """The next (term, convergent) pair, or None after exact termination."""
        if self._pending_term is not None:
            term = self._pending_term
            self._pending_term = None
            return self._emit(term)
        if self.done:
            return None
        while True:
            pl, ql = self._frame_lo
            ph, qh = self._frame_hi
            mediant = Fraction(pl + ph, ql + qh)
            self.steps += 1
            placement = _locate_strict(self.oracle, mediant, self.budget)
            if placement is Placement.EQUAL:
                self.done = True
                term, convergent = self._emit(self._run_len + 1)
                if convergent != mediant:
                    raise OracleError(
                        f"continued fraction bookkeeping diverged: {convergent} != {mediant}"
                    )
                return term, convergent
            if placement is Placement.GREATER:
                self._frame_lo = (pl + ph, ql + qh)
            else:
                self._frame_hi = (pl + ph, ql + qh)
            if placement is self._run_dir:
                self._run_len += 1
            else:
                finished = self._run_len
                self._run_dir = placement
                self._run_len = 1
                return self._emit(finished)


def mediant_expand(oracle: Oracle, max_terms: int, budget: Budget) -> CFExpansion:
    """Up to ``max_terms`` continued-fraction terms of the oracle's number."""
    if max_terms < 1:
        raise ValueError("need at least one term")
    walk = _MediantWalk(oracle, budget)
    terms: List[int] = []
    convergents: List[Fraction] = []
    while len(terms) < max_terms:
        got = walk.next_term()
        if got is None:
            break
        terms.append(got[0])
        convergents.append(got[1])
    return CFExpansion(tuple(terms), tuple(convergents), walk.done, walk.steps)


def best_approx(oracle: Oracle, max_denominator: int, budget: Budget) -> Fraction:
    """The fraction with denominator at most ``max_denominator`` closest to
    the oracle's number.

    Candidates are the last convergent that fits and the deepest
    semiconvergent that fits; the exact midpoint locate decides between
    them. Equidistant ties go to the smaller denominator, then the smaller
    numerator.
    """
    if max_denominator < 1:
        raise ValueError("denominator bound must be at least 1")
    walk = _MediantWalk(oracle, budget)
    fits: List[Fraction] = []
    overflow: Optional[Fraction] = None
    while True:
        got = walk.next_term()
        if got is None:
            break
        convergent = got[1]
        if convergent.denominator <= max_denominator:
            fits.append(convergent)
            if walk.done:
                return convergent
        else:
            overflow = convergent
            break
    if overflow is None:
        return fits[-1]
    candidate = fits[-1]
    prev_q = fits[-2].denominator if len(fits) >= 2 else 0
    prev_p = fits[-2].numerator if len(fits) >= 2 else 1
    jumps = (max_denominator - prev_q) // candidate.denominator
    if jumps < 1:
        return candidate
    semi = Fraction(
        prev_p + jumps * candidate.numerator,
        prev_q + jumps * candidate.denominator,
    )
    low, high = (candidate, semi) if candidate < semi else (semi, candidate)
    mid = (low + high) / 2
    placement = _locate_strict(oracle, mid, budget)
    if placement is Placement.LESS:
        return low
    if placement is Placement.GREATER:
        return high
    # Exactly equidistant: deterministic tie-break.
    if low.denominator != high.denominator:
        return low if low.denominator < high.denominator else high
    return low if low.numerator < high.numerator else high


@dataclass(frozen=True)
class DecimalEnclosure:
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
    got = oracle._settle(_last_place, scale, budget.steps, target_bits(Fraction(1, scale * 100)))
    if got is None:
        raise BudgetExhausted(
            f"enclosure of {oracle.label} does not fix the 1e-{digits} place "
            f"within {budget.steps} steps"
        )
    scaled, exact = got
    return DecimalEnclosure(_fixed_point(scaled, digits), digits, exact, Fraction(scaled, scale))
