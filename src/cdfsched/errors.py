"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach the requested tolerance."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class CancellationError(ArithmeticError):
    """Closed-form evaluation lost too many digits; use the quadrature path."""


class PreconditionError(ValueError):
    """A stated precondition of the asymptotic regime does not hold."""


class ScenarioError(ValueError):
    """Scenario file failed validation."""
