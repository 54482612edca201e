"""The oracle abstraction: budgeted Yes/No queries over rational intervals.

An :class:`Oracle` stands for one real number. Its observable behaviour:

* ``decide(I, budget)`` answers whether the number ought to lie in the
  inclusive rational interval ``I``. ``YES`` and ``NO`` are definitive and
  never flip when the budget is raised; ``EXHAUSTED`` means the budget ran
  out before the question resolved.
* ``refine(width, budget)`` produces a Yes interval no wider than ``width``.
  Successive results are nested, so any two of them intersect.
* ``locate(c, budget)`` places the number relative to a rational point.
* ``root`` is the rational the oracle is pinned to, when that is known.
  ``None`` encodes ignorance, not irrationality.

Operationally an oracle is driven by a stream of nested Yes intervals whose
widths tend to zero. A known root answers every query, and constructors
with an exact test of where the number lies relative to a rational point
(roots, zero brackets, least upper bounds) answer from that one test, so
such answers never consume budget. One budget step is one pull.

``decide`` and ``locate`` ask in a fixed order: the cached enclosure
first, then the exact hint, then pulls. The exact test is often a user's
sign or upper-bound callback, so a callback runs only for a question the
enclosure cannot settle. Both sources are sound for a consistent oracle,
so the order changes no answer, only the cost.

A pull may carry a precision target: make the width at most ``2**-bits``.
Budgeted queries pull that way. A pull is one pass, without recursion.
Top-down, a node splits its target into one target per operand, an oracle
reached by several paths wants the largest of them, and only an oracle
whose enclosure misses its want gets one. Bottom-up, each oracle that got
a want then steps once: a leaf takes several stream elements, or seeks
straight to the precision when its stream can, and a node maps its
operands' new enclosures, rounded outward onto its want's grid, so its
endpoints grow with the want and not with the DAG. The pull is charged
the furthest it took a leaf (elements, or bits when seeking) and never
more than the budget left, so a budget takes a leaf no further than
one-element pulls would.

Every budgeted query pulls by one rule, on leaves and nodes alike: while
the enclosure misses the query's own target (``refine`` and
``to_decimal`` have one) a pull aims at it, and otherwise it gallops,
aiming 8, then 16, 32, ... bits past the current precision but never
more than the steps left. So a question that needs d bits takes about
log2(d) pulls rather than d. ``compare`` locates 0 on the node
``x - y``. Only ``refiner()`` pulls without a target, and exactly: each
of its steps draws one element from every leaf below, a shared one once.

Oracles are safe to share between threads: a pull takes one oracle's lock
at a time, for that oracle's own step, and the cached narrowest interval
only ever shrinks, so concurrent queries return consistent definitive
answers.
"""

from __future__ import annotations

import operator
import threading
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InvalidFonsi, OracleError
from .intervals import (
    RInterval,
    _interval_raw,
    _le,
    _narrow_verdict,
    _raw_fraction,
    as_rational,
    format_rational,
    mag_bits,
    precision,
    round_out,
    target_bits,
)
from .record import Record

LocateHint = Callable[[Fraction], "Optional[Placement]"]


class QueryResult(Enum):
    YES = "Yes"
    NO = "No"
    EXHAUSTED = "Exhausted"


class Placement(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    EXHAUSTED = "Exhausted"


def _stern_brocot(place: LocateHint, floor: int) -> Iterator[Tuple[int, int, Optional[Placement]]]:
    """Stern-Brocot descent towards the number that ``place`` places.

    Yields ``(p, q, place(p/q))`` for ``floor/1``, then for each mediant of
    the frame ends, which start at ``floor/1`` and ``1/0``. GREATER moves
    the lower end to the mediant and anything else the upper end, so the
    first mediants sweep the integers upwards. Stops after the first EQUAL.
    """
    pl, ql, ph, qh = floor, 1, 1, 0
    placement = place(_raw_fraction(floor, 1))
    yield floor, 1, placement
    while placement is not Placement.EQUAL:
        p, q = pl + ph, ql + qh
        placement = place(_raw_fraction(p, q))
        yield p, q, placement
        if placement is Placement.GREATER:
            pl, ql = p, q
        else:
            ph, qh = p, q


class Budget(Record):
    """Cap on refinement rounds for one query: a nonnegative integer."""

    steps: int

    def __post_init__(self):
        try:
            operator.index(self.steps)
        except TypeError:
            raise TypeError(f"budget steps must be an integer, got {type(self.steps).__name__}") from None
        if self.steps < 0:
            raise ValueError("budget steps must be nonnegative")


class FonsiSource(Record):
    """A family of overlapping, notionally shrinking intervals.

    ``enumerator`` yields intervals that pairwise intersect and become
    arbitrarily short. ``claimed_root`` names the one rational lying in all
    of them, for sources (such as converging sums with a known rational
    limit) where no finite intersection ever collapses to the singleton.
    """

    enumerator: Iterable[RInterval]
    claimed_root: Optional[Fraction] = None


class Oracle:
    """One real number: a leaf driven by a stream, or a node over operands.

    A leaf calls ``stream_factory()`` once, at construction (never when
    built with a ``root``), and pulls the stream it returns. A root is known
    exactly when the cached enclosure is a point. A node (see
    :func:`node_oracle`) holds its ``operands`` and an ``image`` function
    that maps one enclosure per operand to an enclosure of the node's
    number. Its first pull, and every pull without a target (as
    ``refiner()`` pulls), steps every operand once. A later pull with a
    target steps each operand that misses its target from ``split``, at the
    largest target any of its parents sets, and rounds the image outward
    onto that target's grid; every budgeted query pulls so (see
    ``_settle``). Each pull is one pass (``_pass``), so a shared operand
    steps once in it.
    """

    operands: Tuple["Oracle", ...] = ()
    image: Optional[Callable[..., RInterval]] = None
    split: Optional[Callable[..., Tuple[int, ...]]] = None
    _height = 0
    _error: Optional[Exception] = None

    def __init__(
        self,
        stream_factory: Optional[Callable[[], Iterator[RInterval]]],
        *,
        root: Optional[Fraction] = None,
        locate_hint: Optional[LocateHint] = None,
        label: str = "oracle",
    ):
        if root is not None:
            root = as_rational(root)  # its singleton is read through the slots
        # The cached enclosure is a point exactly when a root is known.
        self._best: Optional[RInterval] = None if root is None else _interval_raw(root, root)
        self._iter = stream_factory() if root is None and stream_factory is not None else None
        self._locate_hint = locate_hint
        self._lock = threading.Lock()
        self.label = label

    def __repr__(self) -> str:
        return f"<Oracle {self.label}>"

    @property
    def root(self) -> Optional[Fraction]:
        """The point of a point enclosure, or None: no root known (not "irrational")."""
        best = self._best
        return best.lo if best is not None and best.is_singleton else None

    @property
    def enclosure(self) -> Optional[RInterval]:
        """The current Yes interval, without pulling; None before any pull.
        Raises the stream's error once it has raised one."""
        if self._error is not None:
            raise self._error
        return self._best

    # -- stream plumbing

    def _pass(self, bits: Optional[int], steps: int) -> Tuple[Optional[RInterval], int]:
        """One pull: targets down, enclosures up, without recursion. Top-down
        in height order, an oracle's want is the largest any parent asks,
        None (no target) ranking below every target. A node that wants None,
        or was never pulled, asks each operand for None and steps exact,
        else asks by ``split(want + 1)``; only an operand that misses what
        it is asked gets a want. Then each oracle that got one steps once,
        bottom-up, given it. Returns the new enclosure and the charge (the
        furthest a leaf went, 0 when none took anything), and raises the
        error the pass left on this oracle."""
        wants = {self: bits}
        checked = set()  # nodes whose split is met: their images are checked
        heap = [(-self._height, id(self), self)]
        order = []
        while heap:
            node = heappop(heap)[2]
            order.append(node)
            operands, want = node.operands, wants[node]
            if not operands or node._error is not None:
                continue
            # The node's enclosure first: once it is set, every operand's is,
            # so a pull that races another's first pull reads no None below.
            best = node._best
            if best is None:
                want = wants[node] = None  # a first pull stays exact
            elif best.is_singleton:
                continue
            known = [op._best for op in operands]
            try:
                asks = [None] * len(operands) if want is None else node.split(want + 1, *known)
            except Exception as exc:
                node._error = exc
                continue
            met = want is not None
            for op, got, ask in zip(operands, known, asks):
                # A point meets any ask; with no ask, only a point is skipped.
                if got is not None and (got.is_singleton if ask is None else precision(got) >= ask):
                    continue
                met = False
                if op not in wants:
                    wants[op] = ask
                    heappush(heap, (-op._height, id(op), op))
                elif ask is not None and (wants[op] is None or ask > wants[op]):
                    wants[op] = ask
            if met:
                checked.add(node)
        used = 0
        for oracle in order[::-1]:
            taken = oracle._pull(wants[oracle], steps, oracle in checked)
            if taken > used:
                used = taken
        if self._error is not None:
            raise self._error
        return self._best, used

    def _pull(self, bits: Optional[int], steps: int, met: bool) -> int:
        """Step this oracle once; returns how far it took a leaf. A leaf takes
        one element, or with ``bits`` aims at width ``2**-bits`` within
        ``steps`` elements (bits, when seeking). A node maps its operands'
        enclosures by ``image``, and when ``met`` (its operands meet
        ``split(bits + 1)``) raises if the image is wider than that. Given
        ``bits >= 0`` it rounds an image that is not a point outward onto the
        ``2**-(bits + 2)`` grid and meets it with the enclosure held: a met
        split still gives width at most ``2**-bits``. An error of the step,
        or one an operand holds, is kept. A known root, or a stream that
        ended, steps no further."""
        with self._lock:
            best = self._best
            if self._error is not None or (best is not None and best.is_singleton):
                return 0
            taken, operands = 0, self.operands
            try:
                if operands:
                    known = []
                    for op in operands:
                        if op._error is not None:
                            raise op._error
                        known.append(op._best)
                    nxt = None if best is None and None in known else self.image(*known)
                    if met and precision(nxt) < bits + 1:
                        raise OracleError(f"split of {self.label} is met, yet its image of width at most "
                                          f"2**{-precision(nxt)} is wider than 2**-{bits + 1}")
                    if bits is not None and bits >= 0 and not nxt.is_singleton:
                        wide = round_out(nxt, bits + 2)
                        if wide is not nxt:  # an exact image is nested already
                            nxt = _meet(best, wide)
                else:
                    nxt, taken = self._leaf_step(bits, steps)
            except StopIteration:
                nxt, self._iter = None, None
            except Exception as exc:
                self._error = exc
                return 0
            if nxt is not None:
                self._best = nxt
            return taken

    def _leaf_step(self, bits: Optional[int], steps: int) -> Tuple[Optional[RInterval], int]:
        it, got = self._iter, self._best
        if it is None:
            return None, 0
        if bits is None or got is None:
            return next(it), 1
        have = precision(got)
        seek = getattr(it, "seek", None)
        if seek is not None:
            # A seeking stream jumps one bit per step it is charged.
            goal = min(max(bits, have + 1), have + steps)
            return seek(goal), goal - have
        taken = 0
        for taken, got in enumerate(it, 1):
            if taken == steps or precision(got) >= bits:
                break
        else:
            self._iter = None  # the stream ended
        return got, taken

    def _settle(
        self,
        verdict: Callable[[RInterval, Any], Any],
        query: Any,
        steps: int,
        aim: Optional[Callable[[Any], int]] = None,
        exact: Optional[Callable[[LocateHint, Any], Any]] = None,
    ) -> Any:
        """Pull until ``verdict(enclosure, query)`` gives an answer, spending at
        most ``steps``; None if none came. The cached enclosure is asked
        first. Only when it leaves the question open does ``exact(hint,
        query)`` ask the leaf's exact hint (through ``_place``), once and at
        no cost, and only when that is open too does a pull follow. The only
        loop that spends budget, by one rule on leaves and nodes: aim at
        ``bits = aim(query)`` (computed at the first pull) while the enclosure
        misses it, else gallop ``gain`` bits past its precision, ``gain``
        starting at 8, doubling, and capped by the steps left. So a question
        that needs d bits takes about log2(d) pulls. A pass is charged at
        least one step; one that took nothing from a leaf and left the
        enclosure as it was ends the loop, so a query over streams that ended
        stops at once, and a leaf whose stream ended pulls no more. Raises the
        stream's error once it has raised one."""
        if self._error is not None:
            raise self._error
        known, bits, gain = self._best, None, 8
        while True:
            if known is not None:
                answer = verdict(known, query)
                if answer is not None:
                    return answer
            if exact is not None and self._locate_hint is not None:
                answer = exact(self._place, query)
                if answer is not None:
                    return answer
                exact = None
            if steps <= 0 or self._iter is None and not self.operands:
                return None
            if aim is not None:
                bits, aim = aim(query), None
            goal = bits
            if known is not None and (bits is None or precision(known) >= bits):
                goal = precision(known) + (gain := min(gain, steps))
                gain *= 2
            before = known
            known, used = self._pass(goal, steps)
            if known is None or not used and known == before:
                return None
            steps -= used or 1

    def _place(self, point: Fraction) -> Optional[Placement]:
        """The exact hint's placement of ``point``. An EQUAL roots the leaf
        there, whichever query asked: the paper's Rooted property."""
        placement = self._locate_hint(point)
        if placement is Placement.EQUAL:
            with self._lock:
                self._best = _interval_raw(point, point)
        return placement

    def refiner(self) -> Iterator[RInterval]:
        """Infinite stream of successively narrower Yes intervals. Each step
        draws one element from every leaf below, a shared one once."""
        return iter(lambda: self._pass(None, 1)[0], None)

    # -- queries

    def decide(self, interval: RInterval, budget: Budget) -> QueryResult:
        """Whether the number lies in ``interval``. The cached enclosure is
        asked first, then the leaf's exact hint, at no cost, and only then
        does the budget pay for pulls. So a callback runs only for a
        question the enclosure cannot settle. A hint that places an end
        of the interval EQUAL roots the leaf there, so a Yes to a one-point
        interval does."""
        answer = self._settle(_decide_verdict, interval, budget.steps, exact=_hint_verdict)
        return QueryResult.EXHAUSTED if answer is None else answer

    def refine(self, width: Fraction, budget: Budget) -> Optional[RInterval]:
        """A Yes interval of width at most ``width``, or None on exhaustion.

        Every call charges at least one step, so a zero budget always
        returns None. Its pulls aim straight at the width.
        """
        width = as_rational(width)
        if width.numerator <= 0:
            raise ValueError("requested width must be positive")
        if self._error is not None:
            raise self._error
        if budget.steps <= 0:
            return None
        return self._settle(_narrow_verdict, width, budget.steps, aim=target_bits)

    def locate(self, point: Fraction, budget: Budget) -> Placement:
        """Place the oracle's number relative to ``point``.

        GREATER means the number exceeds the point. EQUAL arises only when
        the point is the root, via an exact hint (which roots the leaf) or
        known root. As in ``decide``, the cached enclosure is asked first,
        then the exact hint, then the budget pays for pulls; a hint that
        cannot place the point leaves the question to the stream.
        """
        point = as_rational(point)
        answer = self._settle(_locate_verdict, point, budget.steps, exact=_hint_placement)
        return Placement.EXHAUSTED if answer is None else answer


def node_oracle(
    operands: Sequence[Oracle],
    image: Callable[..., RInterval],
    label: str,
    split: Callable[..., Tuple[int, ...]],
) -> Oracle:
    """The node whose enclosures are ``image`` of its operands' enclosures.

    ``image`` is a pure function of those enclosures: it keeps no state
    between pulls, so the node's answer depends on where its operands are
    and not on how they got there. ``split(bits, *enclosures)`` gives one
    precision per operand: operand enclosures nested in the given ones and
    of width at most ``2**-precision`` must map to an image of width at most
    ``2**-bits``. A targeted pull asks it one bit past its want and rounds
    the image outward (see ``Oracle._pull``).
    A label longer than a few hundred characters keeps its two ends around
    an ellipsis, so labels of shared operands cannot double at every level.
    """
    if len(label) > 300:
        label = f"{label[:150]}...{label[-150:]}"
    node = Oracle(None, label=label)
    node.operands = tuple(operands)
    node.image = image
    node.split = split
    node._height = 1 + max([op._height for op in node.operands])
    return node


def _hint_verdict(hint: LocateHint, interval: RInterval) -> Optional[QueryResult]:
    """The answer an exact locate hint gives to ``decide(interval)``.

    ``hint(p)`` places the number relative to ``p``, or is None when it can
    only say "at most ``p``" (an upper-bound test cannot tell equality).
    A question is open exactly when the lower end gets None.
    """
    if hint(interval.hi) is Placement.GREATER:
        return QueryResult.NO
    at_lo = hint(interval.lo)
    if at_lo is Placement.LESS:
        return QueryResult.NO
    return None if at_lo is None else QueryResult.YES


def _hint_placement(hint: LocateHint, point: Fraction) -> Optional[Placement]:
    return hint(point)


def _decide_verdict(known: RInterval, interval: RInterval) -> Optional[QueryResult]:
    if interval.encloses(known):
        return QueryResult.YES
    if not known.intersects(interval):
        return QueryResult.NO
    return None


def _locate_verdict(known: RInterval, point: Fraction) -> Optional[Placement]:
    if not _le(point, known.hi):
        return Placement.LESS
    if not _le(known.lo, point):
        return Placement.GREATER
    if known.is_singleton:
        return Placement.EQUAL
    return None


def is_rooted(oracle: Oracle) -> Optional[Fraction]:
    """The oracle's root when one is known; None encodes ignorance."""
    return oracle.root


def _meet(running: Optional[RInterval], nxt: RInterval) -> RInterval:
    """The running intersection of a fonsi after ``nxt``; raises
    :class:`InvalidFonsi` when ``nxt`` misses it."""
    if running is None:
        return nxt
    merged = running.intersection(nxt)
    if merged is None:
        raise InvalidFonsi(f"enumerated interval {nxt} is disjoint from the running intersection {running}")
    return merged


def oracle_from_fonsi(source: FonsiSource) -> Oracle:
    """The unique oracle determined by a fonsi.

    An interval is Yes exactly when it contains a finite intersection of
    enumerated intervals, plus the claimed root's singleton when one is
    given. Queries pull the enumerator and keep a running intersection;
    raises :class:`InvalidFonsi` the moment two enumerated intervals fail
    to intersect.
    """
    enumerator = source.enumerator

    def stream() -> Iterator[RInterval]:
        running: Optional[RInterval] = None
        for nxt in enumerator:
            if not isinstance(nxt, RInterval):
                raise TypeError(f"fonsi enumerator must yield RInterval, got {type(nxt).__name__}")
            running = _meet(running, nxt)
            yield running

    root = source.claimed_root
    label = "fonsi" if root is None else f"fonsi(root={format_rational(root)})"
    return Oracle(stream, root=root, label=label)
