"""Exception types shared across the package."""


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
