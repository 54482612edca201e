"""Independent reference values and output checks, standard library only.

Nothing here imports realoracle. Numbers are described by the plain spec
tuples that ``workloads`` generates:

    ("root", n, q)                 positive n-th root of the rational q
    ("poly", coeffs, a, b)         the one zero of sum(c_i x^i) in [a, b]
    ("lub", k, a, c, m)            sup {x >= 0 : x^k + a*x <= c}, m <= sup < m + 1
    ("cauchy", num, den)           exp(num/den) as the limit of its series
    ("add"|"sub"|"mul", l, r), ("div", x, q)
    ("recip", x, lo, hi)           1/x, with lo:hi a zero-free enclosure of x
    ("apply_poly", coeffs, x)      the polynomial at x
    ("apply_recip", lo, hi, x)     1/x on the zero-free domain lo:hi

Every check returns one of ``OK``, ``WRONG`` (a definitive answer that
contradicts the reference) or ``UNCHECKED`` (the reference is too close to a
boundary to tell).
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

OK, WRONG, UNCHECKED = "ok", "wrong", "unchecked"
GUARD_DIGITS = 40


# -- exact integer and polynomial helpers -------------------------------------

def int_root(m: int, n: int) -> int:
    """Floor of the n-th root of m >= 0, by bisection on bit length."""
    if m < 2:
        return m
    lo, hi = 1 << ((m.bit_length() - 1) // n), 1 << ((m.bit_length() - 1) // n + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** n <= m:
            lo = mid
        else:
            hi = mid
    return lo


def is_perfect_power(q: Fraction, n: int) -> bool:
    return all(int_root(v, n) ** n == v for v in (q.numerator, q.denominator))


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den) and any(num):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def sturm_count(coeffs, a: Fraction, b: Fraction) -> int:
    """Distinct real zeros of the polynomial in (a, b] (Sturm's theorem)."""
    p0 = [Fraction(c) for c in coeffs]
    p1 = [i * c for i, c in enumerate(p0)][1:]
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x):
        signs = [s for s in (_sign(poly_eval(p, x)) for p in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def has_rational_zero(coeffs) -> bool:
    """Rational root theorem over integer coefficients (zero included)."""
    cs = [int(c) for c in coeffs]
    if cs[0] == 0:
        return True
    divisors = lambda v: [d for d in range(1, abs(v) + 1) if v % d == 0]
    for p in divisors(cs[0]):
        for q in divisors(cs[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly_eval(cs, cand) == 0:
                    return True
    return False


def lub_is_ub(spec, u: Fraction) -> bool:
    _, k, a, c, _ = spec
    return u >= 0 and u ** k + a * u >= c


def cf_terms(q: Fraction):
    """Continued-fraction terms of a rational by Euclid's algorithm."""
    p, d = q.numerator, q.denominator
    terms = []
    while d:
        t, r = divmod(p, d)
        terms.append(t)
        p, d = d, r
    return terms


# -- reference enclosures ------------------------------------------------------

def _grid_bisect(lo: int, hi: int, negative_at_lo) -> int:
    """Largest m in [lo, hi) with the predicate true at m and false at m + 1."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if negative_at_lo(mid):
            lo = mid
        else:
            hi = mid
    return lo


def leaf_scaled(spec, places: int):
    """Integers (lo, hi) with lo <= x * 10**places <= hi, hi - lo small."""
    kind = spec[0]
    scale = 10 ** places
    if kind == "root":
        _, n, q = spec
        r = int_root(q.numerator * scale ** n // q.denominator, n)
        return r, r + 1
    if kind == "poly":
        _, coeffs, a, b = spec
        s_a = _sign(poly_eval(coeffs, a))
        lo = math.floor(a * scale)
        hi = math.ceil(b * scale)
        m = _grid_bisect(lo, hi, lambda m: _sign(poly_eval(coeffs, Fraction(m, scale))) == s_a)
        return m, m + 1
    if kind == "lub":
        m0 = spec[4]
        m = _grid_bisect(m0 * scale, (m0 + 1) * scale, lambda m: not lub_is_ub(spec, Fraction(m, scale)))
        return m, m + 1
    if kind == "cauchy":
        _, num, den = spec
        term = total = scale
        k = 0
        while term:
            k += 1
            term = term * num // (den * k)
            total += term
        return total, total + k + 3
    raise ValueError(f"not a leaf: {kind}")


def enclosure(spec, places: int):
    """A Fraction enclosure (lo, hi) of the spec's value, about 10**-places wide."""
    lo, hi = tree_decimal(spec, places)
    return Fraction(lo), Fraction(hi)


def tree_decimal(spec, places: int):
    """Decimal interval arithmetic with outward rounding at ``places`` digits."""
    prec = places + 30
    down = Context(prec=prec, rounding=ROUND_FLOOR, Emax=10 ** 6, Emin=-(10 ** 6))
    up = Context(prec=prec, rounding=ROUND_CEILING, Emax=10 ** 6, Emin=-(10 ** 6))

    def rat(q: Fraction):
        n, d = Decimal(q.numerator), Decimal(q.denominator)
        return down.divide(n, d), up.divide(n, d)

    def mul(x, y):
        pairs = [(a, b) for a in x for b in y]
        return min(down.multiply(a, b) for a, b in pairs), max(up.multiply(a, b) for a, b in pairs)

    def add(x, y):
        return down.add(x[0], y[0]), up.add(x[1], y[1])

    def neg(x):
        return down.minus(x[1]), up.minus(x[0])

    def recip(x):
        if x[0] <= 0 <= x[1]:
            raise ValueError("reference enclosure of a reciprocal operand contains 0")
        return down.divide(1, x[1]), up.divide(1, x[0])

    def horner(coeffs, x):
        acc = rat(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = add(mul(acc, x), rat(c))
        return acc

    def walk(node):
        kind = node[0]
        if kind in ("root", "poly", "lub", "cauchy"):
            lo, hi = leaf_scaled(node, places)
            return Decimal(f"{lo}e-{places}"), Decimal(f"{hi}e-{places}")
        if kind == "add":
            return add(walk(node[1]), walk(node[2]))
        if kind == "sub":
            return add(walk(node[1]), neg(walk(node[2])))
        if kind == "mul":
            return mul(walk(node[1]), walk(node[2]))
        if kind == "div":
            return mul(walk(node[1]), rat(1 / node[2]))
        if kind == "recip":
            return recip(walk(node[1]))
        if kind == "apply_poly":
            return horner(node[1], walk(node[2]))
        if kind == "apply_recip":
            return recip(walk(node[3]))
        raise ValueError(f"unknown node {kind}")

    return walk(spec)


# -- output checks --------------------------------------------------------------

def parse_scaled(text: str, places: int) -> int:
    """The printed decimal as an integer count of 10**-places units."""
    head, _, tail = text.partition(".")
    if len(tail) != places:
        raise ValueError(f"{text!r} does not have {places} places")
    return int(head + tail) if not head.startswith("-") else -int(head[1:] + tail)


def check_floor(scaled: int, lo: Fraction, hi: Fraction, places: int) -> str:
    """Printed digits are floor(x * 10**places) for x in [lo, hi]."""
    scale = 10 ** places
    f_lo, f_hi = math.floor(lo * scale), math.floor(hi * scale)
    if f_lo != f_hi:
        return UNCHECKED
    return OK if scaled == f_lo else WRONG


def check_digits(spec, text: str, places: int) -> str:
    """Check printed digits; each leaf kind has its own independent test."""
    try:
        s = parse_scaled(text, places)
    except ValueError:
        return WRONG
    scale = 10 ** places
    lo, hi = Fraction(s, scale), Fraction(s + 1, scale)
    kind = spec[0]
    if kind == "root":
        _, n, q = spec
        a, b = q.numerator * scale ** n, q.denominator
        return OK if s >= 0 and s ** n * b <= a < (s + 1) ** n * b else WRONG
    if kind == "poly":
        _, coeffs, a, b = spec
        lo_c, hi_c = max(lo, a), min(hi, b)
        if lo_c > hi_c:
            return WRONG
        return OK if _sign(poly_eval(coeffs, lo_c)) * _sign(poly_eval(coeffs, hi_c)) <= 0 else WRONG
    if kind == "lub":
        return OK if not lub_is_ub(spec, lo) and lub_is_ub(spec, hi) else WRONG
    ref_places = places + GUARD_DIGITS
    if kind == "cauchy":
        r_lo, r_hi = leaf_scaled(spec, ref_places)
        return check_floor(s, Fraction(r_lo, 10 ** ref_places), Fraction(r_hi, 10 ** ref_places), places)
    r_lo, r_hi = enclosure(spec, ref_places)
    return check_floor(s, r_lo, r_hi, places)


def expected_decide(ref, a: Fraction, b: Fraction):
    """"Yes", "No", or None when the reference enclosure straddles an end."""
    lo, hi = ref
    if a <= lo and hi <= b:
        return "Yes"
    if hi < a or lo > b:
        return "No"
    return None


def expected_locate(ref, point: Fraction):
    lo, hi = ref
    if hi < point:
        return "Less"
    if lo > point:
        return "Greater"
    return None


def expected_compare(ref_x, ref_y):
    if ref_x[1] < ref_y[0]:
        return "Less"
    if ref_y[1] < ref_x[0]:
        return "Greater"
    return None


def check_answer(expected, got: str) -> str:
    if expected is None:
        return UNCHECKED
    return OK if got == expected else WRONG


def check_cf(ref, terms) -> str:
    """Terms must match the common Euclid prefix of the reference bounds,
    minus its last term, which either bound may still cut short."""
    t_lo, t_hi = cf_terms(ref[0]), cf_terms(ref[1])
    common = 0
    while common < min(len(t_lo), len(t_hi)) and t_lo[common] == t_hi[common]:
        common += 1
    safe = t_lo[: max(common - 1, 0)]
    if len(terms) > len(safe):
        return UNCHECKED if list(terms[: len(safe)]) == safe else WRONG
    return OK if list(terms) == safe[: len(terms)] else WRONG


def check_best_approx(ref, max_den: int, got: Fraction) -> str:
    """Brute force over every denominator up to ``max_den``.

    |x - c| - |x - got| is monotone in x, so a candidate that is closer at
    both reference bounds is closer for every x between them.
    """
    lo, hi = ref
    if got.denominator > max_den:
        return WRONG
    verdict = OK
    for q in range(1, max_den + 1):
        for p in {math.floor(lo * q), math.floor(lo * q) + 1, math.floor(hi * q), math.floor(hi * q) + 1}:
            cand = Fraction(p, q)
            if cand == got:
                continue
            beats_lo = abs(lo - cand) < abs(lo - got)
            beats_hi = abs(hi - cand) < abs(hi - got)
            if beats_lo and beats_hi:
                return WRONG
            if beats_lo != beats_hi:
                verdict = UNCHECKED
    return verdict
