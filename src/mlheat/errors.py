"""Shared exception types, and the integer check that raises one."""

import numbers


class ConfigError(ValueError):
    """Raised when user-supplied configuration fails validation."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot produce a trustworthy result."""


def integral(value, name="value"):
    """``value`` as an int when it is an integral number, 4 or 4.0; 4.7,
    "4", True or None is a ConfigError, never a silent truncation."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integral number, got {value!r}")
