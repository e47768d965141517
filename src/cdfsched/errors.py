"""Exception types shared across the package, and the checks of a number
that every entry point makes with them."""

import sys
from numbers import Integral, Real


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


def _integer(value, name: str, error: type, low: int | None = None) -> int:
    """value as an int if it is an integral number, not a bool, and at
    least low; else raise error.  A plain int skips the Integral check."""
    if (type(value) is int or (isinstance(value, Integral)
                               and not isinstance(value, bool))) \
            and (low is None or value >= low):
        return int(value)
    bound = "" if low is None else f" >= {low}"
    raise error(f"{name} must be an integer{bound}, got {name}={value!r}")


def _finite_real(value, name: str, error: type):
    """value if it is a real number, not a bool, and finite as a float;
    otherwise raise error."""
    if (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return value
    raise error(f"{name} must be a finite real number, got {name}={value!r}")
