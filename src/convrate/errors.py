"""Exception types shared across the package.

ValueError subclasses indicate bad inputs (caller mistakes); RuntimeError
subclasses indicate that an analysis could not be completed on valid inputs
(instability, caps, numerical failure). The CLI maps the former to exit
code 2 and the latter to exit code 1.

:func:`check_nonnegative` is the one copy of the range check shared by the
scalars that must be finite and >= 0 (rates, gains, bounds, tolerances).
"""

import math


class DimensionError(ValueError):
    """Matrix or vector has the wrong shape, or contains non-finite entries."""


class ParameterError(ValueError):
    """A scalar or structured parameter violates its documented range."""


def check_nonnegative(value, name: str) -> float:
    """``value`` as a float; a NaN, infinite or negative value raises ``ParameterError``."""
    value = float(value)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be finite and >= 0, got {value}")
    return value


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be symmetric positive definite is not.

    ``minor`` is the order of the smallest leading principal minor that is
    not positive, when known.
    """

    def __init__(self, message, minor=None):
        super().__init__(message)
        self.minor = minor


class UnsupportedConfigurationError(ValueError):
    """The requested operation does not apply to this configuration."""


class NoStableSolutionError(RuntimeError):
    """No stability certificate exists for the given dynamics."""


class NumericError(RuntimeError):
    """A numerical procedure failed to converge or exceeded its caps."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured resource cap.

    ``estimated_count`` carries the exact number of sequences the
    enumeration would visit, when it is cheap to compute.
    """

    def __init__(self, message, estimated_count=None):
        super().__init__(message)
        self.estimated_count = estimated_count
