"""Spans around the benchmark's calls into realoracle, plus pull counters.

A span is recorded for every call the benchmark makes into a public
function: name, start, end, parent span, op id, self time, and a tag (the
answer's value for enum results, or a caller-supplied label). Spans stay in
memory and are written out when the run ends.

Pulls and callbacks are far too frequent for one span each, so they are
counted instead: a per-instance wrapper on each oracle the benchmark builds
(where the oracle exposes a ``_pull`` method) and a wrapper on each
benchmark-supplied callback add their count and self time to the current
op's counters. Spans, pulls and callbacks share one stack, so every self
time excludes the time of whatever ran nested inside it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from enum import Enum
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through, nothing is wrapped."""

    active = False
    pulls_absent = False

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass

    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    def pulls(self, oracle, layer):
        return oracle

    def callback(self, fn, layer):
        return fn


class Tracer(NullTracer):
    def __init__(self):
        self.active = True
        self.spans = []          # (id, parent, op, name, start, end, self_s, tag)
        self.ops = {}            # op id -> {counter: [count, self seconds]}
        self._stack = [[-1, 0.0]]  # [span id, child seconds]; the bottom frame is the op
        self._next_id = 0
        self._op = -1
        self._counters = defaultdict(lambda: [0, 0.0])
        self.pulls_absent = False

    # -- ops

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._counters = defaultdict(lambda: [0, 0.0])

    def end_op(self) -> None:
        self.ops[self._op] = dict(self._counters)

    # -- spans

    def call(self, name, fn, *args, tag=None):
        if not self.active:
            return fn(*args)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._stack[-1][1] += end - start
        if tag is None and isinstance(result, Enum):
            tag = result.value
        self.spans.append((span_id, parent, self._op, name, start, end, end - start - frame[1], tag))
        return result

    # -- counters

    def _counted(self, fn, counter):
        stack = self._stack

        def wrapped(*args):
            if not self.active:
                return fn(*args)
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - start
                stack.pop()
                stack[-1][1] += took
                entry = self._counters[counter]
                entry[0] += 1
                entry[1] += took - frame[1]

        return wrapped

    def pulls(self, oracle, layer):
        """Count pulls of this oracle instance under ``pull.<layer>``."""
        inner = getattr(oracle, "_pull", None)
        if not callable(inner):
            self.pulls_absent = True
            return oracle
        oracle._pull = self._counted(inner, "pull." + layer)
        return oracle

    def callback(self, fn, layer):
        return self._counted(fn, "callback." + layer)

    # -- output

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                span_id, parent, op, name, start, end, self_s, tag = span
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "self": self_s, "tag": tag,
                }) + "\n")
