"""Shared exception types, and the three rules for scalar inputs.

``integral`` takes an integral number, ``number`` a finite real number and
``positive`` a finite real number above 0.  Each returns the value as an
int or a float, numpy scalars included, and raises ``ConfigError`` for
anything else: a bool, a string, None, an array, NaN or ±inf.  Every
scalar the library or the CLI reads goes through one of them.
"""

import math
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


def number(value, name=None):
    """``value`` as a float when it is a finite real number; the message
    names ``name`` when it is given."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise _rejected(name, "expected a number", value)


def positive(value, name=None):
    """``value`` as a float when it is a finite real number above 0."""
    x = number(value, name)
    if x > 0.0:
        return x
    raise _rejected(name, "expected a positive number", value)


def _rejected(name, rule, value):
    return ConfigError(f"{name}: {rule}, got {value!r}" if name else f"{rule}, got {value!r}")
