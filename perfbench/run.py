#!/usr/bin/env python3
"""The realoracle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload leaf_digits --seed 1 --seconds 30 --trace 0

Run from the repository root. It imports realoracle from ``src/`` of the
checkout it sits in, drives one closed loop (one client, one thread) for
``--seconds``, checks every output against ``reference``, prints a table of
metrics and, as its last line, one JSON object. ``--trace 1`` adds spans
and pull counters and reports the per-layer metrics instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FRESH_PROCESSES = 4
# The keys of workloads.WORKLOADS, repeated here because importing workloads
# imports realoracle, and that import is part of the timed set-up.
WORKLOAD_NAMES = ("leaf_digits", "expr_digits", "queries")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library() -> float:
    """Import realoracle from this checkout's src/; returns seconds taken."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import realoracle
    took = perf_counter() - start
    if Path(realoracle.__file__).resolve().parent != (SRC / "realoracle").resolve():
        sys.exit(f"perfbench: imported realoracle from {realoracle.__file__}, not {SRC}")
    return took


def fresh_processes(args, count):
    """Set-up time and peak RSS measured in fresh interpreters.

    Each child imports realoracle, runs the workload's set-up, then one
    untimed round, and reports its times (scaled by its own probe) and its
    peak RSS. So RSS does not depend on how many ops a run managed. Call
    this while the calling process is still small: Linux carries a parent's
    peak RSS into the child's ``ru_maxrss`` across fork and exec.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    results = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def timed_loop(wl, tr, seconds, speed, tracing):
    """Run ops back to back for ``seconds``, finishing the current round.

    Traced runs also time ops untraced, to measure what the trace costs: ops
    that build fresh oracles run twice, untraced then traced; ops on a
    shared pool, whose state a repeat would change, alternate.
    """
    from measure import PROBE_EVERY_S
    from workloads import run_one

    records = []
    since_probe = 0.0
    speed.probe()
    deadline = perf_counter() + seconds
    for batch in wl.rounds():
        if perf_counter() >= deadline:
            break
        for op in batch:
            if not tracing:
                modes = (False,)
            elif wl.fresh_per_op:
                modes = (False, True)
            else:
                modes = (len(records) % 2 == 1,)
            for traced in modes:
                records.append(run_one(wl, op, tr, len(records), traced))
                since_probe += records[-1].took
                if since_probe >= PROBE_EVERY_S:
                    speed.probe()
                    since_probe = 0.0
    tr.active = tracing
    speed.probe()
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "realoracle" / "__init__.py").is_file():
        sys.exit(f"perfbench: no realoracle sources at {SRC}")
    fresh = [] if args.setup_probe else fresh_processes(args, FRESH_PROCESSES)
    import_s = import_library()
    import measure
    import workloads
    from trace import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    start = perf_counter()
    wl.setup(tracer)
    setup_s = import_s + perf_counter() - start

    tracer.active = False
    for op in next(wl.rounds()):  # warm-up round, untimed and unchecked
        wl.run(op, tracer)

    if args.setup_probe:
        scale = measure.REF_PROBE_S / measure.settled_probe()
        print(json.dumps({
            "import_s": import_s * scale, "setup_s": setup_s * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }))
        return 0

    speed = measure.SpeedTrack()
    records = timed_loop(wl, tracer, args.seconds, speed, bool(args.trace))
    setups = [(f["import_s"], f["setup_s"]) for f in fresh]
    setups.append((import_s * speed.overall(), setup_s * speed.overall()))

    import report

    if args.trace:
        import layers

        metrics, notes, more = layers.traced_metrics(args, tracer, records, speed, setups)
        statuses = [r.status for r in records] + more
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        statuses = [r.status for r in records]
        metrics, notes = report.end_to_end(records, speed, setups, [f["peak_rss_mb"] for f in fresh])
    table, result = report.summary(args, statuses, speed, metrics, notes)
    print(table)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
