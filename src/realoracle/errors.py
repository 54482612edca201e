"""Exception hierarchy for the library.

Every library-raised error derives from :class:`OracleError` so callers can
catch one base class at API boundaries (the CLI does exactly that).
"""


class OracleError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInDenominator(OracleError):
    """Reciprocal of an interval that contains zero."""


class UnsupportedDomain(OracleError):
    """A constructor was asked for a value outside its supported domain."""


class InvalidFonsi(OracleError):
    """Two enumerated intervals were disjoint; the source is not a valid
    family of overlapping, shrinking intervals."""


class InvalidBracket(OracleError):
    """A zero bracket whose endpoint signs are strictly equal and nonzero,
    or otherwise malformed."""


class InvalidBounds(OracleError):
    """The claimed upper bound of a least-upper-bound description fails its
    own test."""


class ZeroWitnessInvalid(OracleError):
    """A reciprocal witness interval contains zero or is not decided a Yes
    interval of the operand."""


class BudgetExhausted(OracleError):
    """A refinement algorithm could not resolve a step within its budget."""


class DomainEscape(OracleError):
    """The argument of a function oracle does not decide its domain Yes,
    or a rectangle's base leaves that domain."""


class ExprSyntaxError(OracleError):
    """Expression text failed to parse.

    Carries the character position and the set of tokens that would have
    been accepted there.
    """

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f"expected {expected}" + (f", found {found}" if found else "")
        super().__init__(f"syntax error at position {position}: {detail}")


class ExprSemanticError(OracleError):
    """Expression parsed but names something the constructors reject."""
