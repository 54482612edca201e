import itertools
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from realoracle.arithmetic import compare, o_add, o_mul, o_neg
from realoracle.constructors import SignFunction, UpperBoundTest, ivt_oracle, lub_oracle, nth_root_oracle, rational_oracle
from realoracle.errors import InvalidFonsi
from realoracle.intervals import RInterval, interval_make
from realoracle.oracle import (
    Budget,
    FonsiSource,
    Oracle,
    Placement,
    QueryResult,
    is_rooted,
    oracle_from_fonsi,
)

AMPLE = Budget(200)


def shrinking(center, start=F(1)):
    """Intervals [center - w, center + w] with w halving forever."""
    w = start
    while True:
        yield interval_make(center - w, center + w)
        w /= 2


class TestBudget:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, F(5, 2), "10"])
    def test_steps_that_are_not_integers_rejected(self, steps):
        with pytest.raises(TypeError, match="budget steps must be an integer"):
            Budget(steps)

    def test_large_integer_steps_accepted(self):
        assert Budget(10**30).steps == 10**30

    def test_zero_budget_refine_is_absent(self):
        assert rational_oracle(F(1, 3)).refine(F(1, 10**6), Budget(0)) is None

    def test_rooted_refine_returns_root_singleton(self):
        got = rational_oracle(F(1, 3)).refine(F(1, 10**9), AMPLE)
        assert got == RInterval(F(1, 3), F(1, 3))


class TestDecide:
    def test_rational_yes(self):
        assert rational_oracle(F(1, 2)).decide(interval_make(0, 1), Budget(0)) is QueryResult.YES

    def test_rational_no_disjoint_from_root(self):
        assert rational_oracle(F(1, 2)).decide(interval_make(2, 3), Budget(0)) is QueryResult.NO

    def test_root_singleton_exact_test(self):
        # (3/2)**2 = 9/4 > 2, so the singleton lies above the square root of 2.
        sq2 = nth_root_oracle(2, 2)
        assert sq2.decide(RInterval(F(3, 2), F(3, 2)), Budget(0)) is QueryResult.NO

    def test_a_yes_to_a_point_roots_the_oracle(self):
        # An opaque sign's zero z = 1 + 3^-50 is past its rational-root probe,
        # so the leaf starts unrooted; its exact hint decides z:z Yes.
        z = 1 + F(1, 3**50)
        x = ivt_oracle(SignFunction(lambda t: (t > z) - (t < z)), 1, 2)
        other = z + F(1, 3**60)
        assert x.decide(RInterval(other, other), Budget(10)) is QueryResult.NO
        assert x.root is None
        assert x.decide(RInterval(z, z), Budget(0)) is QueryResult.YES
        assert x.root == z and x.enclosure == RInterval(z, z)


class TestLocate:
    def test_greater(self):
        assert nth_root_oracle(2, 2).locate(F(1), AMPLE) is Placement.GREATER

    def test_equal_on_root(self):
        assert rational_oracle(F(1, 2)).locate(F(1, 2), Budget(0)) is Placement.EQUAL

    def test_less(self):
        assert nth_root_oracle(2, 2).locate(F(3, 2), AMPLE) is Placement.LESS

    def test_hintless_locate_uses_refinement(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(5, 3))))
        assert o.locate(F(1), AMPLE) is Placement.GREATER
        assert o.locate(F(2), AMPLE) is Placement.LESS
        assert o.locate(F(5, 3), Budget(20)) is Placement.EXHAUSTED

    def test_points_are_exact(self):
        # A float point is refused up front, whichever path would place it.
        for o in (nth_root_oracle(2, 2), rational_oracle(F(1, 2)), oracle_from_fonsi(FonsiSource(shrinking(F(5, 3))))):
            with pytest.raises(TypeError):
                o.locate(1.5, AMPLE)
        assert nth_root_oracle(2, 2).locate(1, AMPLE) is Placement.GREATER


class TestFonsi:
    def test_claimed_root_singleton_is_yes(self):
        def enum():
            for n in itertools.count(1):
                yield interval_make(2 - F(1, n), 2 + F(1, n))

        o = oracle_from_fonsi(FonsiSource(enum(), claimed_root=F(2)))
        assert o.decide(RInterval(F(2), F(2)), Budget(0)) is QueryResult.YES
        assert is_rooted(o) == F(2)

    def test_an_int_claimed_root_is_held_as_a_fraction(self):
        # Queries read the root's singleton through Fraction's integer parts.
        o = oracle_from_fonsi(FonsiSource(iter([]), claimed_root=2))
        assert type(o.root) is F and o.root == 2
        assert o.refine(F(1, 8), Budget(1)) == RInterval(F(2), F(2))
        assert o.locate(F(2), Budget(0)) is Placement.EQUAL

    def test_first_pull_settles_wide_query(self):
        def enum():
            for n in itertools.count(1):
                yield interval_make(1, 1 + F(1, n))

        o = oracle_from_fonsi(FonsiSource(enum()))
        assert o.decide(interval_make(0, 3), Budget(1)) is QueryResult.YES
        assert is_rooted(o) is None

    def test_zero_budget_cannot_pull(self):
        def enum():
            for n in itertools.count(1):
                yield interval_make(1, 1 + F(1, n))

        o = oracle_from_fonsi(FonsiSource(enum()))
        assert o.decide(interval_make(0, 3), Budget(0)) is QueryResult.EXHAUSTED

    def test_disjoint_pair_raises(self):
        o = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 1), interval_make(2, 3)])))
        with pytest.raises(InvalidFonsi):
            o.refine(F(1, 2), AMPLE)

    def test_idempotence_on_refiner(self):
        # Rebuilding an oracle from its own refiner agrees on decided queries.
        src = oracle_from_fonsi(FonsiSource(shrinking(F(7, 5))))
        feed = itertools.islice(src.refiner(), 64)
        rebuilt = oracle_from_fonsi(FonsiSource(feed, claimed_root=src.root))
        queries = [
            interval_make(1, 2),
            interval_make(F(7, 5), 2),
            interval_make(3, 4),
            interval_make(0, 1),
        ]
        for q in queries:
            a = src.decide(q, AMPLE)
            b = rebuilt.decide(q, AMPLE)
            if QueryResult.EXHAUSTED not in (a, b):
                assert a is b

    def test_rooted_idempotence(self):
        def enum():
            for n in itertools.count(1):
                yield interval_make(2 - F(1, n), 2 + F(1, n))

        src = oracle_from_fonsi(FonsiSource(enum(), claimed_root=F(2)))
        feed = itertools.islice(src.refiner(), 16)
        rebuilt = oracle_from_fonsi(FonsiSource(feed, claimed_root=src.root))
        assert rebuilt.decide(RInterval(F(2), F(2)), Budget(0)) is QueryResult.YES
        assert rebuilt.decide(interval_make(3, 4), AMPLE) is QueryResult.NO


class TestInvariants:
    def test_definitive_answers_are_budget_monotone(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(1, 3))))
        queries = [interval_make(0, 1), interval_make(1, 2), interval_make(F(1, 3), 1)]
        for q in queries:
            answers = [o.decide(q, Budget(b)) for b in (0, 1, 2, 4, 8, 16, 64)]
            definitive = [a for a in answers if a is not QueryResult.EXHAUSTED]
            assert len(set(definitive)) <= 1
            # once definitive, later (larger-budget) answers stay definitive
            seen = False
            for a in answers:
                if seen:
                    assert a is not QueryResult.EXHAUSTED
                seen = seen or a is not QueryResult.EXHAUSTED

    def test_consistency_supersets_of_yes_are_yes(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(2, 7))))
        inner = interval_make(0, 1)
        assert o.decide(inner, Budget(4)) is QueryResult.YES
        outer = interval_make(-5, 6)
        assert o.decide(outer, Budget(4)) is QueryResult.YES

    def test_disjoint_intervals_not_both_yes(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(2, 7))))
        a = interval_make(0, F(1, 4))
        b = interval_make(F(1, 2), 1)
        answers = {o.decide(a, AMPLE), o.decide(b, AMPLE)}
        assert answers != {QueryResult.YES}
        assert QueryResult.YES not in answers or len(answers) == 2

    @given(cut=st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64))
    def test_separation_on_rational_oracle(self, cut):
        o = rational_oracle(F(1, 2))
        whole = interval_make(0, 1)
        assert o.decide(whole, Budget(0)) is QueryResult.YES
        pieces = [interval_make(0, cut), interval_make(cut, cut), interval_make(cut, 1)]
        answers = [o.decide(p, Budget(0)) for p in pieces]
        yes = answers.count(QueryResult.YES)
        if answers[1] is QueryResult.YES:
            assert yes == 3
        else:
            assert yes == 1

    def test_refine_widths_and_pairwise_intersection(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(9, 11))))
        widths = [F(1, 2), F(1, 5), F(1, 17), F(1, 64), F(1, 1000)]
        got = []
        for w in widths:
            iv = o.refine(w, AMPLE)
            assert iv is not None and iv.width <= w
            got.append(iv)
        for a, b in itertools.combinations(got, 2):
            assert a.intersects(b)

    def test_concurrent_queries_consistent(self):
        o = nth_root_oracle(2, 2)
        query = interval_make(1, 2)
        results = []

        def work():
            for _ in range(50):
                results.append(o.decide(query, AMPLE))
                o.refine(F(1, 10**6), AMPLE)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(results) == {QueryResult.YES}

    def test_refiner_stream_is_nested(self):
        o = oracle_from_fonsi(FonsiSource(shrinking(F(3, 8))))
        chain = list(itertools.islice(o.refiner(), 20))
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.encloses(nxt)


class TestStreamsThatEndOrNeverStart:
    @pytest.mark.parametrize("build", [
        lambda: oracle_from_fonsi(FonsiSource(iter([]))),
        lambda: Oracle(None),
    ], ids=["empty fonsi", "no stream"])
    def test_nothing_to_pull_exhausts_at_any_budget(self, build):
        o = build()
        for steps in (0, 1, 10, 1000):
            assert o.decide(interval_make(-1, 1), Budget(steps)) is QueryResult.EXHAUSTED
            assert o.locate(F(0), Budget(steps)) is Placement.EXHAUSTED
            assert o.refine(F(1, 2), Budget(steps)) is None
            assert o.enclosure is None and o.root is None
        assert list(o.refiner()) == []

    def test_an_ended_stream_repeats_its_last_interval(self):
        o = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 2), interval_make(1, 3)])))
        last = interval_make(1, 2)
        assert list(itertools.islice(o.refiner(), 5)) == [interval_make(0, 2)] + [last] * 4
        assert o.decide(interval_make(1, F(3, 2)), Budget(100)) is QueryResult.EXHAUSTED
        assert o.refine(F(1, 4), Budget(100)) is None
        assert o.enclosure == last

    @pytest.mark.parametrize("query", [
        lambda o, budget: o.decide(interval_make(1, F(3, 2)), budget),
        lambda o, budget: o.locate(F(3, 2), budget),
        lambda o, budget: o.refine(F(1, 4), budget),
    ], ids=["decide", "locate", "refine"])
    def test_a_query_on_an_ended_stream_stops_at_once(self, monkeypatch, query):
        # Each pass past the end takes nothing, so no budget buys more.
        passes = []
        counted = Oracle._pass
        monkeypatch.setattr(Oracle, "_pass", lambda self, *args: passes.append(args) or counted(self, *args))
        o = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 2), interval_make(1, 3)])))
        assert query(o, Budget(10**5)) in (QueryResult.EXHAUSTED, Placement.EXHAUSTED, None)
        assert len(passes) <= 3 and o.enclosure == interval_make(1, 2)
        assert query(o, Budget(10**5)) in (QueryResult.EXHAUSTED, Placement.EXHAUSTED, None)
        assert len(passes) <= 3

    @pytest.mark.parametrize("query", [
        lambda o, budget: o.decide(interval_make(2, F(5, 2)), budget),
        lambda o, budget: o.locate(F(5, 2), budget),
        lambda o, budget: o.refine(F(1, 4), budget),
    ], ids=["decide", "locate", "refine"])
    def test_a_query_on_a_node_over_an_ended_stream_stops_at_once(self, monkeypatch, query):
        # A pass that takes nothing from a leaf and leaves the node's
        # enclosure as it was is charged nothing and ends the query.
        passes = []
        counted = Oracle._pass
        monkeypatch.setattr(Oracle, "_pass", lambda self, *args: passes.append(args) or counted(self, *args))
        leaf = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 2), interval_make(1, 3)])))
        node = o_add(leaf, rational_oracle(1))
        assert query(node, Budget(10**5)) in (QueryResult.EXHAUSTED, Placement.EXHAUSTED, None)
        assert len(passes) <= 3 and node.enclosure == interval_make(2, 3)

    def test_a_node_over_a_leaf_refined_elsewhere_still_answers(self, monkeypatch):
        leaf = nth_root_oracle(2, 2)
        stale = o_add(leaf, rational_oracle(1))
        assert stale.refine(F(1, 2), AMPLE) is not None
        assert o_mul(leaf, rational_oracle(2)).refine(F(1, 2**60), AMPLE) is not None
        # The leaf meets every ask, so a pass on the stale node takes nothing
        # from it, yet the node's image narrows, so the query goes on.
        charges = []
        counted = Oracle._pass

        def counting(self, *args):
            known, used = counted(self, *args)
            charges.append(used)
            return known, used

        monkeypatch.setattr(Oracle, "_pass", counting)
        assert stale.decide(interval_make(F(24142, 10**4), F(24143, 10**4)), Budget(10)) is QueryResult.YES
        assert charges and set(charges) == {0}

    def test_the_stream_factory_is_called_once_at_construction(self):
        calls = []

        def factory():
            calls.append(1)
            return shrinking(F(1, 3))

        o = Oracle(factory)
        assert calls == [1]
        assert o.refine(F(1, 2**10), AMPLE) is not None
        assert len(list(itertools.islice(o.refiner(), 3))) == 3
        assert calls == [1]
        rooted = Oracle(factory, root=F(1, 3))
        assert rooted.refine(F(1, 2**10), AMPLE) == interval_make(F(1, 3), F(1, 3))
        assert calls == [1]


class TestStickyErrors:
    def broken(self):
        return oracle_from_fonsi(FonsiSource(iter([interval_make(0, 1), interval_make(2, 3)])))

    def test_refine_raises_every_time(self):
        o = self.broken()
        for _ in range(3):
            with pytest.raises(InvalidFonsi):
                o.refine(F(1, 1000), Budget(5))

    def test_decide_raises_after_refine_did(self):
        o = self.broken()
        with pytest.raises(InvalidFonsi):
            o.refine(F(1, 1000), Budget(5))
        for _ in range(2):
            with pytest.raises(InvalidFonsi):
                o.decide(interval_make(F(1, 2), 1), Budget(5))

    def test_an_error_stays_on_every_node_above_the_leaf(self):
        # The leaf fails in the pull's second pass; the node between it and
        # the top keeps the error as well, not only the leaf and the top.
        bad = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 1), interval_make(0, F(1, 2)), interval_make(2, 3)])))
        middle = o_neg(bad)
        top = o_add(middle, nth_root_oracle(2, 2))
        with pytest.raises(InvalidFonsi):
            top.refine(F(1, 2**40), Budget(100))
        for oracle in (bad, middle, top):
            with pytest.raises(InvalidFonsi):
                oracle.enclosure


class TestStickyErrorsOverCachedAnswers:
    def broken_after_refine(self):
        o = oracle_from_fonsi(FonsiSource(iter([interval_make(0, 1), interval_make(2, 3)])))
        with pytest.raises(InvalidFonsi):
            o.refine(F(1, 1000), Budget(5))
        return o

    def test_decide_raises_where_the_cache_would_answer(self):
        o = self.broken_after_refine()
        with pytest.raises(InvalidFonsi):
            o.decide(interval_make(0, 1), Budget(5))
        with pytest.raises(InvalidFonsi):
            o.decide(interval_make(0, 1), Budget(0))

    def test_locate_raises_where_the_cache_would_answer(self):
        o = self.broken_after_refine()
        with pytest.raises(InvalidFonsi):
            o.locate(F(5), Budget(5))

    def test_refine_raises_where_the_cache_would_answer(self):
        o = self.broken_after_refine()
        with pytest.raises(InvalidFonsi):
            o.refine(F(4), Budget(5))

    def test_enclosure_and_compare_raise_where_the_cache_would_answer(self):
        o = self.broken_after_refine()
        with pytest.raises(InvalidFonsi):
            o.enclosure
        with pytest.raises(InvalidFonsi):
            compare(o, rational_oracle(5), Budget(5))



class RuleBroke(Exception):
    pass


def counted(calls, fail_deeper):
    """Log a callback's argument; raise at one whose denominator exceeds
    ``2**fail_deeper``."""
    def log(t):
        if fail_deeper is not None and t.denominator > 2**fail_deeper:
            raise RuleBroke(t)
        calls.append(t)
    return log


def counted_zero(fail_deeper=None):
    """sqrt(2) as the zero of an opaque sign rule, with a log of its calls."""
    calls = []
    log = counted(calls, fail_deeper)

    def sign(t):
        log(t)
        return (t * t > 2) - (t * t < 2)

    return ivt_oracle(SignFunction(sign), 0, 2), calls


def counted_lub(fail_deeper=None):
    """sqrt(2) as a least upper bound, with a log of its upper-bound tests."""
    calls = []
    log = counted(calls, fail_deeper)

    def is_ub(u):
        log(u)
        return u >= 0 and u * u >= 2

    return lub_oracle(UpperBoundTest(is_ub, F(0), F(2))), calls


def inner_point_below(enclosure):
    """A point strictly inside ``enclosure`` and below sqrt(2)."""
    p = enclosure.midpoint()
    while p * p > 2:
        p = (enclosure.lo + p) / 2
    return p


@pytest.mark.parametrize("build", [counted_zero, counted_lub], ids=["zero", "lub"])
class TestCacheFirst:
    """decide and locate ask the cached enclosure first, the exact hint (a
    user callback) only for a question the enclosure leaves open, and pull
    only after that."""

    def refined(self, build):
        oracle, calls = build()
        known = oracle.refine(F(1, 2**60), Budget(200))
        assert known is not None and known.width <= F(1, 2**60)
        calls.clear()
        return oracle, calls, known

    def test_questions_the_enclosure_settles_make_no_callback(self, build):
        oracle, calls, known = self.refined(build)
        assert oracle.decide(interval_make(1, 2), AMPLE) is QueryResult.YES
        assert oracle.decide(interval_make(F(3, 2), 2), AMPLE) is QueryResult.NO
        assert oracle.decide(interval_make(1, F(7, 5)), Budget(0)) is QueryResult.NO
        assert oracle.decide(known, Budget(0)) is QueryResult.YES
        assert oracle.locate(F(7, 5), AMPLE) is Placement.GREATER
        assert oracle.locate(F(3, 2), Budget(0)) is Placement.LESS
        assert calls == []
        assert oracle.enclosure is known

    def test_a_question_inside_the_enclosure_reaches_the_hint(self, build):
        oracle, calls, known = self.refined(build)
        p = inner_point_below(known)
        assert oracle.decide(interval_make(p, 2), Budget(0)) is QueryResult.YES
        assert p in calls
        calls.clear()
        assert oracle.locate(p, Budget(0)) is Placement.GREATER
        assert calls == [p]
        # The hint answered: no pull, so the enclosure is the one refine left.
        assert oracle.enclosure is known

    def test_a_fresh_leaf_answers_from_the_hint_at_no_budget(self, build):
        oracle, calls = build()
        calls.clear()
        assert oracle.decide(interval_make(1, 2), Budget(0)) is QueryResult.YES
        assert oracle.locate(F(1), Budget(0)) is Placement.GREATER
        assert calls
        assert oracle.enclosure is None

    def test_an_error_is_raised_before_the_hint(self, build):
        # The rule breaks during a pull: every later query raises that error
        # and asks the hint nothing, though the hint could answer it.
        oracle, calls = build(fail_deeper=20)
        with pytest.raises(RuleBroke):
            oracle.refine(F(1, 2**60), Budget(200))
        calls.clear()
        with pytest.raises(RuleBroke):
            oracle.decide(interval_make(1, 2), Budget(0))
        with pytest.raises(RuleBroke):
            oracle.locate(F(1), Budget(0))
        assert calls == []
