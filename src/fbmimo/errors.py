"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SingularMatrixError(ValueError):
    """A matrix is singular (or numerically indistinguishable from singular).

    For a stack of matrices ``rows`` marks the singular ones; None means
    the whole input.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


class CapacityError(ValueError):
    """A requested codebook would exceed the enumerable-size budget."""


class ConfigError(ValueError):
    """An experiment or simulation configuration is inconsistent."""


class InsufficientDataError(ValueError):
    """Too few data points to carry out the requested estimate."""


class ResampleLimitError(RuntimeError):
    """A trial kept drawing singular channels past the resample budget."""
