"""Exception types shared across the package.

Everything raised on purpose derives from EksError, so callers can catch
one base class at the CLI boundary and map it to an exit code.
"""

__all__ = [
    "EksError", "DimensionMismatch", "NonFinite", "NotPSD", "NonPositive",
    "SingularMatrix", "SingularImplicitSystem", "Diverged",
    "DegenerateDirection", "NonlinearUnsupported", "SizeMismatch",
    "TooLarge",
]


class EksError(Exception):
    """Base class for all deliberate failures in this package."""


class DimensionMismatch(EksError):
    """Array shapes are inconsistent with each other or with the problem."""


class NonFinite(EksError):
    """A NaN or infinity showed up where finite numbers are required."""


class NotPSD(EksError):
    """A matrix that must be positive semidefinite has a genuinely
    negative eigenvalue (beyond the roundoff tolerance)."""


class NonPositive(EksError):
    """A scalar parameter that must be positive (or inside its allowed
    range) is not."""


class SingularMatrix(EksError):
    """A linear solve hit a singular or non-positive-definite matrix."""


class SingularImplicitSystem(EksError):
    """The implicit half-step system could not be solved; the message
    records the step index."""


class Diverged(EksError):
    """The ensemble spread grew until h cov_uu gamma0^{-1} reached 1/eps,
    where the implicit system loses its identity to rounding, typically
    because the stepsize is too large; the message records the step
    index."""


class DegenerateDirection(EksError):
    """A requested direction collapses to (numerically) zero, e.g. a
    perturbation direction that lies entirely inside the forward map's
    range."""


class NonlinearUnsupported(EksError):
    """An operation that only makes sense for linear forward maps was
    asked to handle a nonlinear one."""


class SizeMismatch(EksError):
    """Two collections that must have matching sizes do not."""


class TooLarge(EksError):
    """An input exceeds the size guard of an expensive exact algorithm."""
