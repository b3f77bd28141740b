"""Shared exception types, and the four rules for inputs.

``integral`` takes an integral number, ``number`` a finite real number and
``positive`` a finite real number above 0.  Each returns the value as an
int or a float, numpy scalars included, and raises ``ConfigError`` for
anything else: a bool, a string, None, an array, NaN or ±inf.  Every
scalar the library or the CLI reads goes through one of them, and every
array argument of a public entry through ``reals``, which takes real numbers.
"""

import math
import numbers
import reprlib

import numpy as np


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


def reals(value, name=None):
    """``value`` as a float64 array when it is a real number or an array or
    list of them; a string, None, a bool, a complex value, an object, a
    ragged list or an int beyond the float range is a ConfigError."""
    try:
        array = np.asarray(value)
        # an object array may hold ints past int64 or fractions
        if array.dtype.kind in "iuf" or array.dtype == object and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in array.flat):
            return array.astype(float, copy=False)
    except (ValueError, OverflowError):  # a ragged list, an int beyond the float range
        pass
    raise _rejected(name, "expected real numbers", value)


def _rejected(name, rule, value):
    got = reprlib.repr(value)  # shortened, however long the value
    return ConfigError(f"{name}: {rule}, got {got}" if name else f"{rule}, got {got}")
