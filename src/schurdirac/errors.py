"""Exception types shared across the package.

Every failure mode that corresponds to a violated structural hypothesis
of the block operator gets its own class, so callers (and the CLI exit
code logic) can distinguish "the math says no" from "the software broke".
"""

from __future__ import annotations

__all__ = [
    "SchurDiracError",
    "DimensionMismatch",
    "NonPositiveS",
    "NegativeAlpha",
    "HypothesisFailed",
    "TooLarge",
    "DeltaOutOfRange",
    "NegativeShiftUnsupported",
    "NoConvergence",
    "CheckFailed",
    "InvalidQuantumNumbers",
    "BadRange",
    "ParseError",
    "ValidationError",
    "IllConditioned",
]


class SchurDiracError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SchurDiracError):
    """Block or vector shapes are inconsistent."""


class NonPositiveS(SchurDiracError):
    """The lower-right block S is not positive definite (needs S >= c1 I > 0)."""


class NegativeAlpha(SchurDiracError):
    """A spectral shift alpha < 0 was requested where alpha >= 0 is required."""


class HypothesisFailed(SchurDiracError):
    """A structural hypothesis of the construction is violated.

    Raised when the Schur-complement form at alpha=0 is not positive
    definite, or when a coupling constant lies outside the admissible
    band. The CLI maps this to exit code 2.
    """


class TooLarge(SchurDiracError):
    """2N exceeds inertia_c2_oracle's dense cap (DENSE_ORACLE_CAP by default)."""


class DeltaOutOfRange(SchurDiracError):
    """delta exceeds c1*alpha/(c1+alpha); the resolvent bound is not guaranteed."""


class NegativeShiftUnsupported(SchurDiracError):
    """Shifts sigma < 0 may destroy S >= c1 I > 0 and are rejected."""


class NoConvergence(SchurDiracError):
    """An eigenvalue routine or an eigenpair residual failed, or too few eigenvalues exist."""


class CheckFailed(SchurDiracError):
    """An internal cross-check of a computed result disagreed.

    Raised where a c2 fails find_c2's factorization certificate, on
    either layout (M_{c2-t} must be positive definite and M_{c2+t} must
    not; find_c2, c2_consistency and embedding_delta), where an identity
    disagrees with its swapped form, or where solve's residual is not
    finite; the result is not returned.
    """


class InvalidQuantumNumbers(SchurDiracError):
    """(n, kappa, nu) outside the domain of the bound-state formula."""


class BadRange(SchurDiracError):
    """Invalid radial grid parameters."""


class ParseError(SchurDiracError):
    """Malformed configuration text.

    Attributes
    ----------
    line, col : int
        1-based position of the offending token.
    """

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(SchurDiracError):
    """A configuration value is semantically invalid.

    Attributes
    ----------
    key : str
        Name of the offending configuration key or field.
    """

    def __init__(self, key: str, message: str = ""):
        detail = f"{key}: {message}" if message else key
        super().__init__(detail)
        self.key = key


class IllConditioned(UserWarning):
    """Condition estimate of the reduced system exceeds the fixed cap COND_CAP.

    Issued as a warning; the solve result is still returned, flagged.
    """
