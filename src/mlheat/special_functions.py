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
    """Gaussian image form of the a-derivatives of K, for |a| <= l.

    ``deriv`` is an order 0, 1 or 2, giving its sum, or a tuple of orders,
    giving a list of their sums from one pass over the images.

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
    orders = deriv if isinstance(deriv, tuple) else (deriv,)
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    n_max = int(math.ceil(0.5 * _REACH * math.sqrt(np.max(delta / (l * l), initial=0.0))))
    two_delta = 2.0 * delta
    span = 2.0 * l
    rate = -l / delta
    g = np.exp((-0.25 / delta) * (a * a))
    ratio = np.exp(rate * span) if n_max > 1 else None

    def image(d, x, gauss):
        # the d-th derivative of exp(-x^2 / (4 delta)) without its factor
        # (-2 delta)^-d, which is applied once to the total
        if d == 0:
            return gauss
        if d == 1:
            return x * gauss
        term = x * x - two_delta
        term *= gauss
        return term

    def side(b):
        # the images at x = b + 2nl, n = 1 ... n_max, summed in place per order
        step = np.exp(rate * np.maximum(l + b, 0.0))
        gauss = g * step
        x = b + span if max(orders) else None
        totals = [gauss.copy() if d == 0 else image(d, x, gauss) for d in orders]
        for _ in range(1, n_max):
            step *= ratio
            gauss *= step
            if x is not None:
                x += span
            for i, d in enumerate(orders):
                totals[i] += image(d, x, gauss)
        return totals

    sums = []
    norm = np.sqrt(np.pi * delta)
    for d, plus, minus in zip(orders, side(a), side(-a)):
        if d == 1:
            plus -= minus
        else:
            plus += minus
        plus += image(d, a, g)
        plus /= norm * (-two_delta) ** d if d else norm
        sums.append(plus)
    return sums if isinstance(deriv, tuple) else sums[0]


def _theta_sum(delta, a, l, deriv):
    """Theta-series form of the a-derivatives of K; ``deriv`` as ``_image_sum``.

    (1/l) [1 + 2 sum_k q^(k^2) cos(k w a)] with w = pi / l, q = exp(-w^2 delta),
    differentiated term by term.  The terms come by recurrence from one
    exp, one cos and, for odd orders, one sin per element:
    q^(k^2) = q^((k-1)^2) q^(2k-1), and with phi = w a,
    cos((k+1) phi) = 2 cos(phi) cos(k phi) - cos((k-1) phi), and likewise
    sin, the three-term Chebyshev recurrence.  ``folded_kernel`` takes this
    branch at q <= exp(-pi), where it keeps at most 4 terms.
    """
    orders = deriv if isinstance(deriv, tuple) else (deriv,)
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    w = np.pi / l
    decay = w * w * delta
    # sum_k k^d q^(k^2) cos(k phi) for even d, sin(k phi) for odd
    sums = [np.zeros(np.broadcast(delta, a, l).shape) for _ in orders]
    q = np.exp(-decay)
    square = q * q
    weight = odd = q
    phi = w * a
    cos = np.cos(phi)
    twice = 2.0 * cos
    sin = np.sin(phi) if 1 in orders else None
    cos_prev, sin_prev = 1.0, 0.0
    for k in _theta_orders(np.min(decay)):
        if k > 1:
            odd = odd * square
            weight = weight * odd
            cos_prev, cos = cos, twice * cos - cos_prev
            if sin is not None:
                sin_prev, sin = sin, twice * sin - sin_prev
        for i, d in enumerate(orders):
            term = weight * (sin if d == 1 else cos)
            if d:
                term *= float(k ** d)
            sums[i] += term
    totals = []
    for d, total in zip(orders, sums):
        if d == 0:
            total *= 2.0
            total += 1.0
        else:
            total *= -2.0 * w ** d
        total /= l
        totals.append(total)
    return totals if isinstance(deriv, tuple) else totals[0]


def _folded_kernels(delta, a, l, orders):
    """K and its a-derivatives of the given orders from one pass.

    The argument checks, the fold into [-l, l], the branch split and one
    image or theta sum serve every order in the tuple ``orders``.
    Arguments as ``folded_kernel``; returns a list of ndarrays of their
    broadcast shape, one per order.
    """
    # checked before broadcasting, so each argument is scanned at its own size
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    if not (delta > 0.0).all():
        raise ConfigError("time lag delta must be positive")
    if not np.isfinite(a).all():
        raise ConfigError("offset a must be finite")
    if not ((l > 0.0) & (l < math.inf)).all():
        raise ConfigError("width l must be positive and finite")
    span = 2.0 * l
    fold = np.round(a / span)
    fold *= span
    a = a - fold
    image = delta < l * l / math.pi
    if image.all():
        return _image_sum(delta, a, l, orders)
    if not image.any():
        return _theta_sum(delta, a, l, orders)
    # the branches split element by element, from arguments copied to the
    # full shape: a boolean mask gathers several times slower from the
    # stride-0 views of np.broadcast_arrays
    shape = np.broadcast(delta, a, l).shape
    full = []
    for v in (delta, a, l, image):
        if v.shape != shape:
            copy = np.empty(shape, v.dtype)
            copy[...] = v
            v = copy
        full.append(v)
    delta, a, l, image = full
    outs = [np.empty(delta.shape) for _ in orders]
    theta = ~image
    for mask, branch in ((image, _image_sum), (theta, _theta_sum)):
        for out, part in zip(outs, branch(delta[mask], a[mask], l[mask], orders)):
            out[mask] = part
    return outs


def folded_kernel(delta, a, l, deriv=0):
    """The reflected heat kernel K(delta, a, l) or its a-derivative of order ``deriv``.

    K(delta, a, l) = sum_n exp(-(a + 2 n l)^2 / (4 delta)) / sqrt(pi delta),
    of period 2l in a.  ``a`` is folded into [-l, l]; each element then
    uses the image sum when delta / l^2 < 1/pi (nome above exp(-pi)) and
    the theta series otherwise, so both need only a handful of terms; the
    theta terms come by recurrence (``_theta_sum``), and ``_folded_kernels``
    gives several orders from one such pass.
    All arguments broadcast; delta may be +inf (the l -> 0 limit 1/l).
    ``ConfigError`` is raised unless delta > 0, a is finite and l is
    finite and positive.

    Returns a float when every argument is a scalar, else an ndarray.
    """
    if deriv not in (0, 1, 2):
        raise ConfigError(f"deriv must be 0, 1 or 2, got {deriv!r}")
    (out,) = _folded_kernels(delta, a, l, (deriv,))
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
