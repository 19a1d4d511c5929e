"""Exception types shared across the package, and the two argument rules
every public entry point checks with: :func:`require`, for a condition the
caller writes so that NaN fails it (``0.0 < eps < math.inf``), and
:func:`whole`, for a count, degree or order.  Both raise :class:`DomainError`.
"""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def require(ok, message: str) -> None:
    """Raise ``DomainError(message)`` unless ``ok`` holds for every entry."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(message)


def whole(value, message: str, low: float = 0, array_of: str | None = None) -> int:
    """``value`` as an int: an int, a numpy int or an integral float >= ``low``;
    anything else, NaN and infinities included, raises ``DomainError(message)``.
    With ``array_of``, a count too large to index a (count, 3) float array
    raises "<array_of> <count> is too large for an array"."""
    try:  # NaN fails the comparison; floor raises on inf and non-numbers
        ok = value >= low and (type(value) is int or value == math.floor(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(message)
    count = int(value)
    if array_of is not None and count * 24 > np.iinfo(np.intp).max:
        raise DomainError(f"{array_of} {count} is too large for an array")
    return count


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
