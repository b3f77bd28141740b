"""Jacobi theta functions and the dual-series layer kernels.

Every kernel here is the reflected heat kernel

    K(delta, a, l) = sum_n exp(-(a + 2 n l)^2 / (4 delta)) / sqrt(pi delta)

or one of its first two a-derivatives.  Poisson summation turns the image
sum into the theta series theta3(pi a / (2 l), q) / l with nome
q = exp(-pi^2 delta / l^2).  The image sum converges fast for small
delta / l^2 and the theta series for large; ``folded_kernel`` evaluates
whichever is faster, element by element, and the third Jacobi theta
function

    theta3(z, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2 n z),   0 <= q < 1,

its z-derivatives and the layer kernels ``eta_even`` / ``eta_odd`` are
thin calls to it.
"""

import math

import numpy as np

from .errors import ConfigError

# Truncation.  Theta terms with q^(k^2) below exp(-_DECAY) are dropped;
# images more than _REACH sqrt(delta) beyond [-l, l] are dropped, being
# below exp(-_REACH^2 / 4) ~ 4e-19 of the nearest one.
_DECAY = 42.0
_REACH = 13.0


def _check_args(z, q):
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ConfigError("nome q must be finite")
    if np.any(q < 0.0) or np.any(q >= 1.0):
        raise ConfigError("nome q must lie in [0, 1)")
    if not np.all(np.isfinite(z)):
        raise ConfigError("phase z must be finite")
    return z, q


def _theta_orders(decay):
    """The orders k = 1 ... K of the theta terms kept when the smallest
    w^2 delta is ``decay``: q^(k^2) = exp(-decay k^2) down to exp(-_DECAY)."""
    return np.arange(1, int(math.ceil(math.sqrt(_DECAY / decay))) + 1)


def _image_sum(delta, a, l, deriv):
    """Gaussian image form of the d-th a-derivative of K, for |a| <= l.

    Neighbouring images differ by a Gaussian factor, so they are built by
    multiplication: with g = exp(-a^2 / (4 delta)), R+- = exp(-l (l +- a) / delta)
    and Q = exp(-2 l^2 / delta), the image at a +- 2nl is G+-_n with
    G+-_0 = g and G+-_(n+1) = G+-_n R+- Q^n.  That is at most four
    exponentials per element whatever the number of images, and no
    (elements x images) array.  For |a| <= l every factor is at most 1, so
    nothing overflows and the far images underflow to 0; l +- a are
    clipped at 0 against |a| exceeding l by rounding.

    The two sides are built by the same operations with a and -a swapped,
    so the sum is exactly even (deriv 0, 2) or odd (deriv 1) in a.
    """
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    n_max = int(math.ceil(0.5 * _REACH * math.sqrt(np.max(delta / (l * l), initial=0.0))))
    two_delta = 2.0 * delta
    span = 2.0 * l
    rate = -l / delta
    g = np.exp((-0.25 / delta) * (a * a))
    ratio = np.exp(rate * span) if n_max > 1 else None

    def image(x, gauss):
        # the d-th derivative of exp(-x^2 / (4 delta)) without its factor
        # (-2 delta)^-d, which is applied once to the total
        if deriv == 1:
            return x * gauss
        if deriv == 2:
            return (x * x - two_delta) * gauss
        return gauss

    def side(b):
        # the images at x = b + 2nl, n = 1 ... n_max, and their Gaussians
        step = np.exp(rate * np.maximum(l + b, 0.0))
        gauss = g * step
        x = b + span if deriv else None
        total = image(x, gauss)
        for _ in range(1, n_max):
            step *= ratio
            gauss = gauss * step
            if deriv:
                x += span
            total = total + image(x, gauss)
        return total

    plus, minus = side(a), side(-a)
    total = image(a, g) + (plus - minus if deriv == 1 else plus + minus)
    norm = np.sqrt(np.pi * delta)
    if deriv:
        norm = norm * (-two_delta) ** deriv
    return total / norm


def _theta_sum(delta, a, l, deriv):
    """Theta-series form of the d-th a-derivative of K.

    (1/l) [1 + 2 sum_k q^(k^2) cos(k w a)] with w = pi / l, q = exp(-w^2 delta),
    differentiated term by term.
    """
    w = np.pi / l
    decay = w * w * delta
    k = _theta_orders(np.min(decay))
    weight = 2.0 * np.exp(-np.multiply.outer(decay, k * k))
    kw = np.multiply.outer(w, k)
    phase = kw * np.asarray(a)[..., None]
    if deriv == 0:
        total = 1.0 + (weight * np.cos(phase)).sum(axis=-1)
    elif deriv == 1:
        total = -(weight * kw * np.sin(phase)).sum(axis=-1)
    else:
        total = -(weight * kw * kw * np.cos(phase)).sum(axis=-1)
    return total / l


def folded_kernel(delta, a, l, deriv=0):
    """The reflected heat kernel K(delta, a, l) or its a-derivative of order ``deriv``.

    K(delta, a, l) = sum_n exp(-(a + 2 n l)^2 / (4 delta)) / sqrt(pi delta),
    of period 2l in a.  ``a`` is folded into [-l, l]; each element then
    uses the image sum when delta / l^2 < 1/pi (nome above exp(-pi)) and
    the theta series otherwise, so both need only a handful of terms.
    All arguments broadcast; delta may be +inf (the l -> 0 limit 1/l).
    ``ConfigError`` is raised unless delta > 0, a is finite and l is
    finite and positive.

    Returns a float when every argument is a scalar, else an ndarray.
    """
    if deriv not in (0, 1, 2):
        raise ConfigError(f"deriv must be 0, 1 or 2, got {deriv!r}")
    # checked before broadcasting, so each argument is scanned at its own size
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    if not np.all(delta > 0.0):
        raise ConfigError("time lag delta must be positive")
    if not np.all(np.isfinite(a)):
        raise ConfigError("offset a must be finite")
    if not np.all((l > 0.0) & (l < math.inf)):
        raise ConfigError("width l must be positive and finite")
    delta, a, l = np.broadcast_arrays(delta, a, l)
    a = a - 2.0 * l * np.round(a / (2.0 * l))
    image = delta < l * l / math.pi
    if image.all():
        out = _image_sum(delta, a, l, deriv)
    elif not image.any():
        out = _theta_sum(delta, a, l, deriv)
    else:
        out = np.empty(delta.shape)
        out[image] = _image_sum(delta[image], a[image], l[image], deriv)
        theta = ~image
        out[theta] = _theta_sum(delta[theta], a[theta], l[theta], deriv)
    return float(out) if out.ndim == 0 else out


def _theta3_deriv(z, q, deriv):
    # theta3(z, q) = l K(delta, z, l) with l = pi/2 and q = exp(-4 delta)
    z, q = _check_args(z, q)
    with np.errstate(divide="ignore"):
        delta = -np.log(q) / 4.0
    half_pi = 0.5 * math.pi
    return half_pi * folded_kernel(delta, z, half_pi, deriv)


def theta3(z, q):
    """Third Jacobi theta function theta3(z, q).

    Parameters
    ----------
    z : float or ndarray
        Phase in radians.
    q : float or ndarray
        Nome(s), 0 <= q < 1; broadcast against ``z``.

    Returns
    -------
    float or ndarray
    """
    return _theta3_deriv(z, q, 0)


def theta3_dz(z, q):
    """d/dz of theta3: -4 sum_{n>=1} n q^(n^2) sin(2 n z)."""
    return _theta3_deriv(z, q, 1)


def theta3_dzz(z, q):
    """d^2/dz^2 of theta3: -8 sum_{n>=1} n^2 q^(n^2) cos(2 n z)."""
    return _theta3_deriv(z, q, 2)


def eta_kernel(dt, l, sigma, parity):
    """Layer kernel eta_even / eta_odd for a strip of width ``l``.

    eta_even(dt) = (sigma sqrt(pi dt))^-1 sum_n exp(-(2 n l)^2 / (4 sigma^2 dt))
    eta_odd(dt)  = same with images at (2n+1) l.

    This is K(sigma^2 dt, a, l) with a = 0 (even) or a = l (odd); see
    ``folded_kernel``.
    """
    if parity not in ("even", "odd"):
        raise ConfigError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not (np.isfinite(l) and l > 0.0):
        raise ConfigError(f"layer width l must be positive, got {l}")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ConfigError(f"sigma must be positive, got {sigma}")
    return folded_kernel(sigma * sigma * dt, 0.0 if parity == "even" else l, l)
