"""Exception and warning types shared across the package."""


class LrdExtremesError(Exception):
    """Base class for package-specific errors."""


class DomainError(LrdExtremesError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(LrdExtremesError, ValueError):
    """Inconsistent or invalid experiment configuration.

    ``violations`` collects every individual problem found, not just the
    first one.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]


class InfeasibleConfigError(ConfigError):
    """Configuration violates a feasibility constraint of the limit theorem."""


class StateError(LrdExtremesError, RuntimeError):
    """Operation is unsupported for the object's current state or variant."""


class NumericError(LrdExtremesError, ArithmeticError):
    """A quadrature or root-finding step failed to converge."""


class TruncationWarning(UserWarning):
    """A value was truncated or capped; details in the message."""


class ClampWarning(UserWarning):
    """Probability arguments were clamped away from the endpoints {0, 1}."""
