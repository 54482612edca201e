"""Exact real arithmetic over interval oracles.

A real number is represented by an oracle: a budgeted rule answering Yes or
No to membership queries over inclusive rational intervals, backed by a
stream of nested Yes intervals whose widths shrink to zero. The package
provides constructors (rationals, n-th roots, bracketed zeros, Cauchy
limits, least upper bounds), exact interval arithmetic combinators,
ordering, refinement algorithms (bisection, mediants, continued fractions,
best rational approximations, certified decimals), function oracles over
base/wall rectangles, and an executable axiom suite. The axiom suite
(``axioms``) and the command line (``cli``) load on first use of one of
their names, so importing the package loads the number core only.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExhausted,
    DomainEscape,
    ExprSemanticError,
    ExprSyntaxError,
    InvalidBounds,
    InvalidBracket,
    InvalidFonsi,
    OracleError,
    UnsupportedDomain,
    ZeroInDenominator,
    ZeroWitnessInvalid,
)
from .intervals import (
    ArithOp,
    IntervalRelation,
    Rational,
    RInterval,
    as_rational,
    format_interval,
    format_rational,
    interval_arith,
    interval_contains,
    interval_intersection,
    interval_make,
    interval_relate,
    parse_interval,
    parse_rational,
)
from .oracle import (
    Budget,
    FonsiSource,
    Oracle,
    Placement,
    QueryResult,
    is_rooted,
    oracle_from_fonsi,
)
from .constructors import (
    CauchySpec,
    SignFunction,
    UpperBoundTest,
    cauchy_oracle,
    cauchy_tail_enclosures,
    iroot,
    ivt_oracle,
    lub_oracle,
    nth_root_oracle,
    polynomial_sign,
    rational_oracle,
)
from .arithmetic import (
    CompareResult,
    compare,
    o_abs,
    o_add,
    o_mul,
    o_neg,
    o_recip,
    o_sub,
)
from .refine import (
    CFExpansion,
    DecimalEnclosure,
    best_approx,
    bisect_step,
    mediant_expand,
    to_decimal,
)
from .functions import (
    FunctionOracle,
    Rectangle,
    apply,
    poly_extension,
    recip_extension,
    rect_decide,
)

# Tools built on the core, imported by __getattr__ when first named.
_HOME = {
    "axioms": "axioms", "AxiomReport": "axioms", "Counterexample": "axioms", "Verdict": "axioms",
    "check_axioms": "axioms", "format_reports": "axioms", "replay": "axioms",
    "cli": "cli", "build_oracle": "cli", "format_expr": "cli", "parse_expr": "cli", "run_command": "cli",
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HOME))


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    home = import_module(f"{__name__}.{module}")
    value = globals()[name] = home if name == module else getattr(home, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
