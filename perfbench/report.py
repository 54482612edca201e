"""End-to-end metrics of an untraced run, the printed table, the JSON line.

A metric is (name, value, unit, samples, gated). Gated metrics are the
``end_to_end`` (or ``per_layer``) entries of BENCHMARK.json and go into the
final JSON line; the others are printed in the table only.
"""

from __future__ import annotations

import math
import statistics

from measure import REF_PROBE_S, percentile, within_group_slope
from workloads import FAILED, OK, UNCHECKED, WRONG


def end_to_end(records, speed, setups, peak_rss):
    times = [r.took * speed.factor_at(r.start) for r in records]
    n = len(times)
    metrics = [
        ("ops_per_s", n / sum(times), "ops/s", n, True),
        ("op_p50_ms", statistics.median(times) * 1e3, "ms", n, True),
        ("op_p90_ms", percentile(times, 0.9) * 1e3, "ms", n, True),
        ("setup_s", statistics.median(s for _, s in setups), "s", len(setups), True),
        ("peak_rss_mb", statistics.median(peak_rss), "MB", len(peak_rss), True),
    ]
    for tail in (0.99, 0.999):  # printed where at least ten samples lie beyond
        if n * (1 - tail) >= 10:
            metrics.append((f"op_p{tail * 100:g}_ms", percentile(times, tail) * 1e3, "ms", n, False))
    digits = [(r.group, r.digits, t) for r, t in zip(records, times) if r.digits]
    if digits:
        slope = within_group_slope((g, math.log(d), math.log(t)) for g, d, t in digits)
        metrics.append(("time_slope", slope, "1", len(digits), False))
    failed = sum(1 for r in records if r.status in (FAILED, WRONG))
    metrics.append(("failed_frac", failed / n, "1", n, False))
    raw = [r.took for r in records]
    notes = [f"raw (unscaled) op_p50_ms {statistics.median(raw) * 1e3:.4f}, op_p90_ms {percentile(raw, 0.9) * 1e3:.4f}"]
    return metrics, notes


def summary(args, statuses, speed, metrics, notes):
    counts = {s: statuses.count(s) for s in (OK, UNCHECKED, FAILED, WRONG)}
    probe_ms = [t * 1e3 for t in speed.took]
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"# probe kernel: median {statistics.median(probe_ms):.4f} ms, p10 {percentile(probe_ms, 0.1):.4f},"
        f" p90 {percentile(probe_ms, 0.9):.4f}, n={len(probe_ms)}; times are scaled to a"
        f" {REF_PROBE_S * 1e3:g} ms probe",
        "# checks: " + ", ".join(f"{k} {v}" for k, v in counts.items()),
    ]
    lines += [f"# {note}" for note in notes]
    width = max(len(m[0]) for m in metrics)
    for name, value, unit, samples, gated in metrics:
        flag = "" if gated else "  (printed only)"
        lines.append(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples}{flag}")
    result = {
        "correct": counts[WRONG] == 0,
        "attempted": len(statuses),
        "failed": counts[FAILED] + counts[WRONG],
        "metrics": {m[0]: {"value": m[1], "unit": m[2]} for m in metrics if m[4]},
    }
    return "\n".join(lines), result
