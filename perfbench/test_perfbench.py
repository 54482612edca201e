"""Tests of the benchmark itself: the checkers reject wrong answers, and a
tiny run of each workload emits every metric BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from trace import NullTracer  # noqa: E402

SQRT2 = ("root", 2, F(2))
LEAVES = [
    SQRT2,
    ("root", 17, F(1000, 7)),
    ("poly", (F(-1), F(-1), F(1)), F(1), F(2)),
    ("lub", 3, 1, 5, 1),
    ("cauchy", 1, 1),
    ("add", ("mul", ("root", 2, F(2)), ("root", 3, F(2))), ("recip", ("root", 2, F(3)), F(1), F(2))),
]


def printed(spec, places):
    """The digits a correct library prints: floor(x * 10**places)."""
    lo, hi = ref.enclosure(spec, places + 40)
    scaled = int(lo * 10 ** places // 1)
    assert scaled == int(hi * 10 ** places // 1)
    return scaled


def as_text(scaled, places):
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{body[:-places]}.{body[-places:]}"


@pytest.mark.parametrize("spec", LEAVES, ids=lambda s: s[0])
def test_digit_checks_reject_last_digit_off_by_one(spec):
    places = 30
    good = printed(spec, places)
    assert ref.check_digits(spec, as_text(good, places), places) == ref.OK
    for bad in (good - 1, good + 1):
        assert ref.check_digits(spec, as_text(bad, places), places) == ref.WRONG


def test_digit_check_agrees_with_the_library():
    oracle = workloads.build_tree(LEAVES[-1], NullTracer())
    text = workloads.refine.to_decimal(oracle, 25, workloads.DIGITS_BUDGET).digits_text
    assert ref.check_digits(LEAVES[-1], text, 25) == ref.OK


def test_flipped_yes_is_wrong():
    enc = ref.enclosure(SQRT2, 50)
    expected = ref.expected_decide(enc, F(1), F(2))
    assert expected == "Yes"
    assert ref.check_answer(expected, "Yes") == ref.OK
    assert ref.check_answer(expected, "No") == ref.WRONG
    assert ref.check_answer(ref.expected_locate(enc, F(3, 2)), "Greater") == ref.WRONG
    assert ref.check_answer(ref.expected_compare(enc, ref.enclosure(("root", 2, F(3)), 50)), "Greater") == ref.WRONG


def test_wrong_continued_fraction_term():
    enc = ref.enclosure(SQRT2, 50)
    assert ref.check_cf(enc, (1, 2, 2, 2, 2)) == ref.OK
    assert ref.check_cf(enc, (1, 2, 2, 3, 2)) == ref.WRONG


def test_non_best_approximation():
    enc = ref.enclosure(SQRT2, 50)
    assert ref.check_best_approx(enc, 100, F(140, 99)) == ref.OK
    assert ref.check_best_approx(enc, 100, F(99, 70)) == ref.WRONG
    assert ref.check_best_approx(enc, 100, F(41, 29)) == ref.WRONG


def test_falsified_axiom_and_answered_boundary_are_wrong():
    q = workloads.Queries(0)
    axioms_op = workloads.Op("check_axioms", 0, args=(1,))
    assert q.check(axioms_op, ("Passed", "Inconclusive")) == ref.OK
    assert q.check(axioms_op, ("Passed", "Falsified")) == ref.WRONG
    boundary = workloads.Op("boundary", None, args=("sub", 2))
    assert q.check(boundary, "Exhausted") == ref.OK
    assert q.check(boundary, "Yes") == ref.WRONG


def test_generated_inputs_meet_preconditions():
    import random

    rng = random.Random(5)
    for _ in range(20):
        _, coeffs, a, b = workloads.gen_poly(rng)
        assert ref.sturm_count(coeffs, a, b) == 1
        assert not ref.has_rational_zero(coeffs)
    for shape in (2, 5) * 10:
        spec = workloads.gen_expr(rng, shape)
        for node in _walk(spec):
            if node[0] == "recip":
                operand, lo, hi = node[1], node[2], node[3]
            elif node[0] == "apply_recip":
                operand, lo, hi = node[3], node[1], node[2]
            else:
                continue
            ref_lo, ref_hi = ref.enclosure(operand, 40)
            assert not lo <= 0 <= hi and lo <= ref_lo and ref_hi <= hi


def _walk(node):
    yield node
    for child in node[1:]:
        if isinstance(child, tuple) and child and isinstance(child[0], str):
            yield from _walk(child)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert "{" not in done.stdout
