"""Gaver-Stehfest inverse Laplace transform.

The inversion rule on the real axis is

    f(T) ~= Lam * sum_{k=1..m} St_k F(k Lam),    Lam = ln 2 / T,

with weights St_k depending only on the (even) order m; ``StehfestScheme.invert``
applies it.  A numerical forward transform is provided as a test oracle.
"""

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._lazy import lazy_attributes
from .errors import ConfigError, NumericalError, integral, positive

# scipy.integrate serves only the forward-transform oracle, so it is
# imported at its first call, not with the package
__getattr__ = lazy_attributes(__name__, quad="scipy.integrate:quad")

#: Default inversion order, adequate for smooth non-oscillatory originals.
DEFAULT_ORDER = 16

# Beyond m = 18 the alternating weights (~1e6 at m = 16) amplify double
# precision rounding past any accuracy gain.
_MAX_ORDER = 18


@dataclass(frozen=True)
class StehfestScheme:
    """Inversion order and its precomputed weights."""

    m: int
    weights: np.ndarray

    def nodes(self, T):
        """Laplace abscissas k*ln2/T, k = 1..m."""
        return np.arange(1, self.m + 1) * (math.log(2.0) / T)

    def invert(self, values, T):
        """f(T) from the transform at ``nodes(T)`` on the last axis, summed in
        one order for every shape, so an array gets the bits of its rows (an
        input that is not C-contiguous is copied: numpy sums strided rows otherwise)."""
        w = (math.log(2.0) / T) * self.weights
        return np.vecdot(np.ascontiguousarray(values, dtype=float), w)


def stehfest_weights(m=DEFAULT_ORDER):
    """The StehfestScheme of even order ``m``.

    The weights are accumulated in exact rational arithmetic and rounded
    once, so the classical identities sum(St_k) = 0 and sum(St_k / k) = 1
    hold to the last bit.  Each order is built once per process; the
    weights are read-only, since every caller shares them.
    """
    m = integral(m, "Stehfest order")
    if m < 2 or m % 2 != 0:
        raise ConfigError(f"Stehfest order must be a positive even integer, got {m}")
    if m > _MAX_ORDER:
        raise ConfigError(f"Stehfest order {m} exceeds the double-precision limit {_MAX_ORDER}")
    return _stehfest_scheme(m)


@functools.cache
def _stehfest_scheme(m):
    half = m // 2
    exact = []
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j ** half) * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num / den
        sign = -1 if (k + half) % 2 else 1
        exact.append(sign * acc)
    # the identities sum(St_k) = 0 and sum(St_k / k) = 1 hold exactly in
    # rational arithmetic; failure means the combinatorics above are wrong
    if sum(exact) != 0 or sum(w / k for k, w in enumerate(exact, 1)) != 1:
        raise NumericalError(f"Stehfest weight identities violated at m={m}")
    weights = np.array([float(w) for w in exact])
    weights.flags.writeable = False
    return StehfestScheme(m=m, weights=weights)


def invert_laplace(F, T, scheme=None):
    """Invert the Laplace transform ``F`` at time ``T``.

    ``F`` may return a scalar or an ndarray (inverted componentwise, bitwise).
    """
    T = positive(T, "time T")
    if scheme is None:
        scheme = stehfest_weights()
    vals = []
    for lam in scheme.nodes(T).tolist():
        v = np.asarray(F(lam), dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"transform evaluation non-finite at lambda = {lam!r}")
        vals.append(v)
    out = scheme.invert(np.stack(vals, axis=-1), T)
    return float(out) if out.ndim == 0 else out


def forward_laplace_numeric(f, lam, t_max=None, tol=1e-12):
    """Numerical forward transform integral(0, inf) exp(-lam t) f(t) dt.

    ``f`` may have at worst a 1/sqrt(t) singularity at t = 0; the head of
    the integral is computed with the substitution u = sqrt(t).  The tail
    is truncated at ``t_max``, by default where exp(-lam t) < tol.
    """
    lam, tol = positive(lam, "lambda"), positive(tol, "tol")
    t_max = positive(-math.log(tol) / lam if t_max is None else t_max, "t_max")
    split = min(1.0 / lam, 0.5 * t_max)
    quad = sys.modules[__name__].quad
    head, err1 = quad(
        lambda u: 2.0 * u * math.exp(-lam * u * u) * f(u * u),
        0.0,
        math.sqrt(split),
        epsabs=0.0,
        epsrel=1e-13,
        limit=400,
    )
    tail, err2 = quad(
        lambda t: math.exp(-lam * t) * f(t),
        split,
        t_max,
        epsabs=0.0,
        epsrel=1e-13,
        limit=400,
    )
    total = head + tail
    # extend the tail by doubling until the added mass is negligible
    # relative to the running total (the transform of an exponentially
    # small function would otherwise lose all relative accuracy)
    a = t_max
    for _ in range(60):
        piece, perr = quad(
            lambda t: math.exp(-lam * t) * f(t),
            a,
            2.0 * a,
            epsabs=0.0,
            epsrel=1e-13,
            limit=200,
        )
        total += piece
        err2 += perr
        a *= 2.0
        if abs(piece) <= tol * abs(total) or piece == 0.0:
            break
    budget = max(tol, tol * abs(total))
    if err1 + err2 > 100.0 * budget:
        raise NumericalError(
            f"forward transform error estimate {err1 + err2:g} exceeds tolerance"
        )
    return total
