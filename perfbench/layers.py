"""Per-layer metrics of a traced run. README.md defines each one.

Per-op counters (``*.pulls_per_op``, ``*.self_ms``, ``stream_self_ms``,
``callback_share``) come from the workload's own traced ops. Per-call
metrics of a public function pool those with a fixed layer suite, which
runs every workload's first round traced, so that each metric has samples
whatever the workload under test. Scaling rows and CLI rows run untraced.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import measure
import reference as ref
import workloads
from trace import NullTracer
from workloads import BOUNDARY_BUDGET, FAILED, LEAF_KINDS, OK

SUITE_FIRST_ID = 10_000_000
SUITE_QUESTIONS_PER_KIND = 8
CLI_REPEATS = 3
SCALING_REPEATS = 3
SCALING_REPEAT_BELOW_S = 0.2  # cells slower than this are timed once, for run length

SCALING = (
    ("sqrt", ("root", 2, F(2)), (100, 300, 1000)),
    ("cbrt", ("root", 3, F(2)), (100, 300, 1000)),
    ("root_high", ("root", 50, F(3)), (10, 20, 30)),
    ("polyzero", ("poly", (F(-1), F(-1), F(1)), F(1), F(2)), (100, 300, 1000)),
    ("lub", ("lub", 2, 0, 2, 1), (100, 300, 1000)),
    ("cauchy", ("cauchy", 1, 1), (50, 100, 200)),
    ("expr3", ("add", ("mul", ("root", 2, F(2)), ("root", 3, F(2))), ("root", 2, F(3))), (30, 100, 300, 1000)),
)
SCALING_SKIPPED = (
    "scaling rows leave out root(200, 3) and root(400, 3) at 30 digits, and output beyond"
    " 4300 digits, for run length"
)
PULL_METRICS = (
    "constructors.stream_self_ms", "constructors.pulls_per_op", "constructors.callback_share",
    "arithmetic.self_ms", "arithmetic.pulls_per_op", "functions.apply_self_ms",
) + tuple(f"constructors.ms_per_kbit.{k}" for k in LEAF_KINDS)
QUESTIONS_WITH_ANSWERS = ("decide", "locate", "compare", "refine", "mediant_expand", "best_approx", "rect_decide")


def run_suite(seed, tracer, speed):
    """Every workload's first round (every question kind for queries), traced."""
    records = []
    for cls in workloads.WORKLOADS.values():
        wl = cls(seed)
        wl.setup(tracer)
        if cls is workloads.Queries:
            batch = [wl.gen_question(wl.rng, kind) for kind, _ in wl.WEIGHTS
                     for _ in range(SUITE_QUESTIONS_PER_KIND)]
        else:
            batch = next(wl.rounds())
        for op in batch:
            records.append(workloads.run_one(wl, op, tracer, SUITE_FIRST_ID + len(records), True))
            speed.probe()
    return records


def scaling_rows(speed):
    """Median time per digit tier, untraced, with a fitted exponent per kind."""
    metrics, statuses = [], []
    null = NullTracer()
    for kind, spec, tiers in SCALING:
        pairs = []
        for digits in tiers:
            took = []
            while len(took) < SCALING_REPEATS and sum(took) < SCALING_REPEAT_BELOW_S:
                speed.probe()
                start = perf_counter()
                if kind == "expr3":
                    oracle = workloads.build_tree(spec, null)
                else:
                    oracle = workloads.build_leaf(spec, null, kind)
                enc = workloads.refine.to_decimal(oracle, digits, workloads.DIGITS_BUDGET)
                took.append((perf_counter() - start) * speed.factor_at(start))
                speed.probe()
                statuses.append(ref.check_digits(spec, enc.digits_text, digits))
            pairs.append((digits, statistics.median(took)))
            metrics.append((f"scaling.{kind}.d{digits}_ms", pairs[-1][1] * 1e3, "ms", len(took)))
        metrics.append((f"scaling.{kind}.exponent", measure.loglog_slope(pairs), "1", len(pairs)))
    return metrics, statuses


def cli_rows(speed):
    """`realoracle eval "sqrt(2)+1"` against `python -c pass`, as subprocesses."""
    src = Path(workloads.__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = {
        "cli.subprocess_eval_ms": [sys.executable, "-m", "realoracle", "eval", "sqrt(2)+1"],
        "cli.bare_python_ms": [sys.executable, "-c", "pass"],
    }
    times = defaultdict(list)
    statuses = []
    for _ in range(CLI_REPEATS):
        for name, cmd in commands.items():
            start = perf_counter()
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
            times[name].append(perf_counter() - start)
            if name == "cli.subprocess_eval_ms":
                statuses.append(OK if done.returncode == 0 and done.stdout.startswith("2.4142135623 ") else FAILED)
    scale = speed.overall()
    return [(name, statistics.median(v) * scale * 1e3, "ms", len(v)) for name, v in times.items()], statuses


def traced_metrics(args, tracer, records, speed, setups):
    suite = run_suite(args.seed, tracer, speed)
    rows, row_statuses = scaling_rows(speed)
    cli, cli_statuses = cli_rows(speed)
    everything = records + suite
    traced = [r for r in everything if r.traced]
    own = [r for r in records if r.traced]
    counters = tracer.ops
    factor = {r.op_id: speed.factor_at(r.start) for r in everything}

    spans = defaultdict(list)  # name -> [(seconds, self seconds, tag)], scaled
    for _, _, op, name, start, end, self_s, tag in tracer.spans:
        f = speed.factor_at(start)
        spans[name].append(((end - start) * f, self_s * f, tag))

    metrics = []
    absent = []

    def add(name, value, unit, samples):
        if samples:
            metrics.append((name, value, unit, samples))
        else:
            absent.append(name)

    def span_median(metric, name, unit_scale, unit, keep=lambda tag: True, field=0):
        picked = [s[field] for s in spans[name] if keep(s[2])]
        add(metric, statistics.median(picked) * unit_scale if picked else None, unit, len(picked))

    def counter(op_id, key, i):
        entry = counters.get(op_id, {}).get(key)
        return entry[i] if entry else 0

    def callbacks(op_id):
        return sum(v[1] for k, v in counters.get(op_id, {}).items() if k.startswith("callback."))

    # cli
    add("cli.import_ms", statistics.median(i for i, _ in setups) * 1e3, "ms", len(setups))
    span_median("cli.parse_us", "cli.parse_expr", 1e6, "us")
    span_median("cli.build_us", "cli.build_oracle", 1e6, "us")
    metrics.extend(cli)

    # constructors
    constructor_spans = ("constructors.nth_root_oracle", "constructors.ivt_oracle",
                         "constructors.lub_oracle", "constructors.cauchy_oracle")
    for kind in LEAF_KINDS:
        picked = [s[0] for n in constructor_spans for s in spans[n] if s[2] == kind]
        add(f"constructors.build_us.{kind}", statistics.median(picked) * 1e6 if picked else None, "us", len(picked))
        per_kbit = [
            (counter(r.op_id, "pull.leaf", 1) + callbacks(r.op_id)) * factor[r.op_id] * 1e3
            / (r.digits * math.log2(10) / 1000)
            for r in traced if r.label == kind
        ]
        add(f"constructors.ms_per_kbit.{kind}", statistics.median(per_kbit) if per_kbit else None, "ms", len(per_kbit))
    n_own = len(own)
    own_ids = [r.op_id for r in own]
    leaf_self = sum(counter(i, "pull.leaf", 1) * factor[i] for i in own_ids)
    callback_self = sum(callbacks(i) * factor[i] for i in own_ids)
    add("constructors.stream_self_ms", leaf_self * 1e3 / max(n_own, 1), "ms", n_own)
    add("constructors.pulls_per_op", sum(counter(i, "pull.leaf", 0) for i in own_ids) / max(n_own, 1), "count", n_own)
    total = leaf_self + callback_self
    add("constructors.callback_share", callback_self / total if total else 0.0, "1", n_own)

    # arithmetic
    add("arithmetic.self_ms", sum(counter(i, "pull.arith", 1) * factor[i] for i in own_ids) * 1e3 / max(n_own, 1),
        "ms", n_own)
    add("arithmetic.pulls_per_op", sum(counter(i, "pull.arith", 0) for i in own_ids) / max(n_own, 1), "count", n_own)
    not_boundary = lambda tag: tag != "boundary"
    span_median("arithmetic.compare_us", "arithmetic.compare", 1e6, "us", not_boundary)
    compares = [s[2] for s in spans["arithmetic.compare"] if s[2] != "boundary"]
    add("arithmetic.compare_decided_frac",
        sum(t in ("Less", "Greater") for t in compares) / len(compares) if compares else None, "1", len(compares))

    # intervals
    digit_ops = [r for r in traced if r.digits and r.kept is not None]
    add("intervals.endpoint_bits", statistics.median(r.kept for r in digit_ops) if digit_ops else None,
        "bits", len(digit_ops))
    add("intervals.bits_per_digit", statistics.median(r.kept / r.digits for r in digit_ops) if digit_ops else None,
        "bits", len(digit_ops))

    # oracle
    span_median("oracle.decide_yes_us", "oracle.decide", 1e6, "us", lambda t: t == "Yes")
    span_median("oracle.decide_no_us", "oracle.decide", 1e6, "us", lambda t: t == "No")
    span_median("oracle.locate_us", "oracle.locate", 1e6, "us")
    span_median("oracle.refine_us", "oracle.refine", 1e6, "us")
    span_median("oracle.decide_exhausted_ms", "oracle.decide", 1e3, "ms", lambda t: t == "boundary")
    span_median("oracle.us_per_budget_step", "oracle.decide", 1e6 / BOUNDARY_BUDGET.steps, "us",
                lambda t: t == "boundary")
    due = [r.status for r in everything if r.label in QUESTIONS_WITH_ANSWERS]
    add("oracle.answered_frac", 1 - due.count(FAILED) / len(due) if due else None, "1", len(due))

    # refine
    span_median("refine.to_decimal_ms", "refine.to_decimal", 1e3, "ms", field=1)
    span_median("refine.mediant_expand_us", "refine.mediant_expand", 1e6, "us")
    span_median("refine.best_approx_us", "refine.best_approx", 1e6, "us")
    cfs = [r.kept for r in everything if r.label == "mediant_expand" and r.kept is not None]
    add("refine.cf_steps_per_term", sum(s for _, s in cfs) / max(sum(t for t, _ in cfs), 1), "count", len(cfs))

    # functions
    span_median("functions.rect_decide_us", "functions.rect_decide", 1e6, "us")
    applied = [r.op_id for r in traced if counter(r.op_id, "pull.apply", 0)]
    add("functions.apply_self_ms",
        sum(counter(i, "pull.apply", 1) * factor[i] for i in applied) * 1e3 / max(len(applied), 1), "ms", len(applied))

    # axioms
    span_median("axioms.check_ms", "axioms.check_axioms", 1e3, "ms")
    verdicts = [v for r in everything if r.label == "check_axioms" and r.kept is not None for v in r.kept]
    add("axioms.passed_frac", verdicts.count("Passed") / len(verdicts) if verdicts else None, "1", len(verdicts))

    # trace cost, machine speed, scaling rows
    untraced = [r for r in records if not r.traced]
    if own and untraced:
        rate = lambda rs: len(rs) / sum(r.took * factor[r.op_id] for r in rs)
        add("trace.overhead_frac", 1 - rate(own) / rate(untraced), "1", len(records))
    else:
        absent.append("trace.overhead_frac")
    add("probe.kernel_ms", statistics.median(speed.took) * 1e3, "ms", len(speed.took))
    metrics.extend(rows)

    notes = [SCALING_SKIPPED]
    if tracer.pulls_absent:
        metrics = [m for m in metrics if m[0] not in PULL_METRICS]
        notes.append("pull counters absent: the oracles expose no _pull method; "
                     + ", ".join(PULL_METRICS) + " are not reported")
    if absent:
        notes.append("no samples for: " + ", ".join(absent))
    return [m + (True,) for m in metrics], notes, [r.status for r in suite] + row_statuses + cli_statuses
