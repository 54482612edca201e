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
with an exact membership test (roots, zero brackets) install a direct rule,
so such answers never consume budget. One budget step is one pull.

Oracles are safe to share between threads: stream pulls are serialized by a
lock, and the cached narrowest interval only ever shrinks, so concurrent
queries return consistent definitive answers.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InvalidFonsi
from .intervals import RInterval, _interval_raw, format_rational

QueryRule = Callable[[RInterval], "Optional[QueryResult]"]
LocateHint = Callable[[Fraction], "Placement"]


class QueryResult(Enum):
    YES = "Yes"
    NO = "No"
    EXHAUSTED = "Exhausted"


class Placement(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class Budget:
    """Cap on refinement rounds for one query."""

    steps: int

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("budget steps must be nonnegative")


@dataclass
class FonsiSource:
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

    A leaf pulls ``stream_factory()``. A node (see :func:`node_oracle`)
    holds its ``operands`` and an ``image`` function that maps one enclosure
    per operand to an enclosure of the node's number. Its first pull pulls
    every operand once; each later pull advances one operand, round-robin.
    """

    operands: Tuple["Oracle", ...] = ()
    image: Optional[Callable[..., RInterval]] = None
    _error: Optional[Exception] = None

    def __init__(
        self,
        stream_factory: Optional[Callable[[], Iterator[RInterval]]],
        *,
        root: Optional[Fraction] = None,
        locate_hint: Optional[LocateHint] = None,
        partial_rule: Optional[QueryRule] = None,
        label: str = "oracle",
    ):
        self._stream_factory = stream_factory
        self._iter: Optional[Iterator[RInterval]] = None
        # Invariant: the cached enclosure is a singleton exactly when a root
        # is known, and then it is the root's singleton.
        self._best: Optional[RInterval] = None if root is None else _interval_raw(root, root)
        self._root = root
        self._locate_hint = locate_hint
        self._partial_rule = partial_rule
        self._lock = threading.Lock()
        self.label = label

    def __repr__(self) -> str:
        return f"<Oracle {self.label}>"

    @property
    def root(self) -> Optional[Fraction]:
        """The known root, or None when no root is known (not "irrational")."""
        return self._root

    @property
    def enclosure(self) -> Optional[RInterval]:
        """The current Yes interval, without pulling; None before any pull."""
        return self._best

    # -- stream plumbing

    def _discover_root(self, value: Fraction) -> None:
        with self._lock:
            if self._root is None:
                # _best first: the rooted fast paths read it once _root is set.
                self._best = _interval_raw(value, value)
                self._root = value

    def _pull(self) -> Optional[RInterval]:
        """Advance the refinement stream by one interval and return it.

        Once a root is known the stream is bypassed and the root singleton
        is returned. A stream that ends simply stops making progress; pulls
        then return the narrowest interval seen so far. An error raised by
        the stream is kept and raised again by every later pull.
        """
        with self._lock:
            if self._root is not None:
                return self._best
            if self._error is not None:
                raise self._error
            if self._iter is None:
                if self.operands:
                    self._iter = _node_stream(self.operands, self.image)
                elif self._stream_factory is None:
                    return self._best
                else:
                    self._iter = self._stream_factory()
            try:
                nxt = next(self._iter)
            except StopIteration:
                return self._best
            except Exception as exc:
                self._error = exc
                raise
            self._best = nxt
            if nxt.is_singleton:
                self._root = nxt.lo
            return nxt

    def _settle(self, verdict: Callable[[RInterval, Any], Any], query: Any, steps: int) -> Any:
        """Pull until ``verdict(enclosure, query)`` gives an answer, at most
        ``steps`` times; None if none came. The only loop that spends budget."""
        known = self._best
        while True:
            if known is not None:
                answer = verdict(known, query)
                if answer is not None:
                    return answer
            if steps <= 0:
                return None
            steps -= 1
            known = self._pull()
            if known is None:
                return None

    def refiner(self) -> Iterator[RInterval]:
        """Infinite stream of successively narrower Yes intervals."""
        return iter(self._pull, None)

    # -- queries

    def decide(self, interval: RInterval, budget: Budget) -> QueryResult:
        rule = self._partial_rule
        if rule is not None:
            verdict = rule(interval)
            if verdict is not None:
                return verdict
        if self._root is not None:
            return _decide_verdict(self._best, interval)
        answer = self._settle(_decide_verdict, interval, budget.steps)
        return QueryResult.EXHAUSTED if answer is None else answer

    def refine(self, width: Fraction, budget: Budget) -> Optional[RInterval]:
        """A Yes interval of width at most ``width``, or None on exhaustion.

        Every call charges at least one step, so a zero budget always
        returns None.
        """
        if width <= 0:
            raise ValueError("requested width must be positive")
        if budget.steps <= 0:
            return None
        return self._settle(_narrow_verdict, width, budget.steps)

    def locate(self, point: Fraction, budget: Budget) -> Placement:
        """Place the oracle's number relative to ``point``.

        GREATER means the number exceeds the point. EQUAL arises only when
        the point is the root, via an exact hint or known root.
        """
        hint = self._locate_hint
        if hint is not None:
            placement = hint(point)
            if placement is Placement.EQUAL:
                self._discover_root(point)
            return placement
        if self._root is not None:
            return _locate_verdict(self._best, point)
        answer = self._settle(_locate_verdict, point, budget.steps)
        return Placement.EXHAUSTED if answer is None else answer

    # -- operator sugar (delegates to the combinators module)

    def __neg__(self) -> "Oracle":
        from .arithmetic import o_neg

        return o_neg(self)

    def __add__(self, other: "Oracle") -> "Oracle":
        from .arithmetic import o_add

        return o_add(self, other)

    def __sub__(self, other: "Oracle") -> "Oracle":
        from .arithmetic import o_sub

        return o_sub(self, other)

    def __mul__(self, other: "Oracle") -> "Oracle":
        from .arithmetic import o_mul

        return o_mul(self, other)

    def __abs__(self) -> "Oracle":
        from .arithmetic import o_abs

        return o_abs(self)


def node_oracle(operands: Sequence[Oracle], image: Callable[..., RInterval], label: str) -> Oracle:
    """The node whose enclosures are ``image`` of its operands' enclosures."""
    node = Oracle(None, label=label)
    node.operands = tuple(operands)
    node.image = image
    return node


def _node_stream(operands: Tuple[Oracle, ...], image: Callable[..., RInterval]) -> Iterator[RInterval]:
    known = [op._pull() for op in operands]
    if any(got is None for got in known):
        return
    yield image(*known)
    # An operand that has given an enclosure never pulls None again.
    for turn in itertools.cycle(range(len(operands))):
        known[turn] = operands[turn]._pull()
        yield image(*known)


def clamp_to(region: RInterval) -> Callable[[RInterval], Optional[RInterval]]:
    """Cuts one operand's nested enclosures down to a region it is claimed
    to lie in; a cut is None once the two are disjoint.

    A cut to one point that the operand did not reach would make up a root
    from a claim a later enclosure may still refute. Such a cut is widened
    to the part of the last cut (the region at first) within the operand's
    width of the point. The cuts stay nested and shrink to the point, so a
    true claim ending exactly at the number refines, though it never roots,
    and a false one is raised once the operand leaves the point.
    """
    last = region

    def cut(got: RInterval) -> Optional[RInterval]:
        nonlocal last
        piece = got.intersection(region)
        if piece is not None and piece.is_singleton and not got.is_singleton:
            point, width = piece.lo, got.width
            piece = last.intersection(_interval_raw(point - width, point + width))
        if piece is not None:
            last = piece
        return piece

    return cut


def _decide_verdict(known: RInterval, interval: RInterval) -> Optional[QueryResult]:
    if interval.encloses(known):
        return QueryResult.YES
    if not known.intersects(interval):
        return QueryResult.NO
    return None


def _narrow_verdict(known: RInterval, width: Fraction) -> Optional[RInterval]:
    return known if known.width <= width else None


def _locate_verdict(known: RInterval, point: Fraction) -> Optional[Placement]:
    if known.hi < point:
        return Placement.LESS
    if known.lo > point:
        return Placement.GREATER
    if known.is_singleton:
        return Placement.EQUAL
    return None


def is_rooted(oracle: Oracle) -> Optional[Fraction]:
    """The oracle's root when one is known; None encodes ignorance."""
    return oracle.root


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
            if running is None:
                running = nxt
            else:
                merged = running.intersection(nxt)
                if merged is None:
                    raise InvalidFonsi(
                        f"enumerated interval {nxt} is disjoint from the running intersection {running}"
                    )
                running = merged
            yield running

    root = source.claimed_root
    label = "fonsi" if root is None else f"fonsi(root={format_rational(root)})"
    return Oracle(stream, root=root, label=label)
