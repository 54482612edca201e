"""Differential check against mpmath: random expression trees at 1000 digits.

mpmath is an optional test dependency; the module skips without it.
"""

import random
from fractions import Fraction as F

import pytest

mpmath = pytest.importorskip("mpmath")

from realoracle.arithmetic import o_add, o_mul, o_recip, o_sub  # noqa: E402
from realoracle.constructors import nth_root_oracle  # noqa: E402
from realoracle.intervals import RInterval  # noqa: E402
from realoracle.oracle import Budget  # noqa: E402
from realoracle.refine import to_decimal  # noqa: E402

DIGITS = 1000


def as_fraction(x) -> F:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def random_tree(rng: random.Random, depth: int):
    """An (oracle, mpmath value) pair built bottom-up from the same choices."""
    if depth == 0 or rng.random() < 0.25:
        n = rng.choice([2, 3])
        q = F(rng.randint(2, 60), rng.randint(1, 7))
        value = mpmath.root(mpmath.mpf(q.numerator) / q.denominator, n)
        return nth_root_oracle(n, q), value
    kind = rng.choice(["add", "sub", "mul", "recip"])
    x, vx = random_tree(rng, depth - 1)
    if kind == "recip":
        if abs(vx) < mpmath.mpf(1) / 100:
            return x, vx
        # A true witness: the value's half and double, both on its side of 0.
        ends = sorted((as_fraction(vx / 2), as_fraction(vx * 2)))
        return o_recip(x, RInterval(*ends)), 1 / vx
    y, vy = random_tree(rng, depth - 1)
    if kind == "add":
        return o_add(x, y), vx + vy
    if kind == "sub":
        return o_sub(x, y), vx - vy
    return o_mul(x, y), vx * vy


@pytest.mark.parametrize("seed", range(60))
def test_digits_match_mpmath(seed):
    rng = random.Random(seed)
    with mpmath.workdps(1100):
        oracle, value = random_tree(rng, rng.randint(2, 5))
        want = int(mpmath.floor(value * mpmath.mpf(10) ** DIGITS))
    got = to_decimal(oracle, DIGITS, Budget(10**5))
    assert got.value == F(want, 10**DIGITS), oracle.label
