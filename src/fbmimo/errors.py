"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SingularMatrixError(ValueError):
    """A matrix is singular (or numerically indistinguishable from singular),
    or a drawn vector that must be normalised is zero."""


class CapacityError(ValueError):
    """A requested codebook would exceed the enumerable-size budget."""


class ConfigError(ValueError):
    """An experiment or simulation configuration is inconsistent."""


class InsufficientDataError(ValueError):
    """Too few data points to carry out the requested estimate."""
