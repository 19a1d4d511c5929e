"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapabilityError(ValueError):
    """The request is valid mathematically but outside what this build supports."""


class SingularKernelError(ValueError):
    """A kernel was evaluated at (or summed over) a singular argument.

    Carries the kernel name and, when raised from a pairwise sum, the
    offending point indices.
    """

    def __init__(self, kernel: str, message: str, indices=None):
        self.kernel = kernel
        self.indices = indices
        super().__init__(f"{kernel}: {message}")


class ConditioningError(RuntimeError):
    """A linear solve or a kernel sum failed or is numerically untrustworthy."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        self.condition_estimate = condition_estimate
        if condition_estimate is not None:
            message = f"{message} (condition estimate {condition_estimate:.3e})"
        super().__init__(message)


class ConfigurationError(RuntimeError):
    """A search or sweep has no usable candidates left."""


class PointSetFormatError(ValueError):
    """A point-set file failed to parse.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class PointSetValidationError(ValueError):
    """A parsed point violates the unit-norm contract."""
