"""Exception types shared across the package, and the one rule that turns
a value past the double range into a DomainError."""

import cmath


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain.

    Covers branch cuts, poles, half-plane restrictions and empty
    admissible cones.  Callers that probe grids of points are expected
    to catch this and record a skip rather than a failure.
    """


class ConvergenceError(ArithmeticError):
    """Raised when a series or quadrature fails to meet its tolerance
    within its budget (max terms; for the DE quadrature MAX_NODES nodes,
    an integrand not decayed at the ends of its range, or a non-finite
    value)."""


def _finite(value: complex, name: str = "value") -> complex:
    """A value that must lie in the double range: an input, or an overflowed
    product or sum, that is inf or nan is a domain error."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} is not finite: {value}")
    return value
