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

The sums take their temporaries from the package's per-thread scratch
workspace (``_workspace``), as the layered solve does, and write their
results to arrays the caller passes; the public functions pass fresh ones,
so what they return is never a view of the workspace, and the Volterra
march passes workspace views.  A thread keeps the scratch of its largest
evaluation resident, about 17 doubles per element of the broadcast shape.
"""

import math

import numpy as np

from ._workspace import _local, _scratch
from .errors import ConfigError, positive

# Truncation.  Theta terms with q^(k^2) below exp(-_DECAY) are dropped;
# images more than _REACH sqrt(delta) beyond [-l, l] are dropped, being
# below exp(-_REACH^2 / 4) ~ 4e-19 of the nearest one.
_DECAY = 42.0
_REACH = 13.0


def _theta_orders(decay):
    """The orders k = 1 ... K of the theta terms kept when the smallest
    w^2 delta is ``decay``: q^(k^2) = exp(-decay k^2) down to exp(-_DECAY)."""
    return np.arange(1, int(math.ceil(math.sqrt(_DECAY / decay))) + 1)


def _image_sum(delta, a, l, deriv, outs=None):
    """Gaussian image form of the a-derivatives of K, for |a| <= l.

    ``deriv`` is an order 0, 1 or 2, giving its sum, or a tuple of orders,
    giving a list of their sums from one pass over the images.  The sums
    are written to ``outs``, one array of the arguments' broadcast shape
    per order, or to fresh arrays when it is None; the temporaries come
    from the workspace.

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
    shape = np.broadcast(delta, a, l).shape
    if outs is None:
        outs = [np.empty(shape) for _ in orders]
    ws = _local.ws
    mark = ws.top
    rate, ratio = ws.take_many(2, *np.broadcast(delta, l).shape)
    np.divide(delta, np.multiply(l, l, rate), rate)
    n_max = int(math.ceil(0.5 * _REACH * math.sqrt(rate.max(initial=0.0))))
    np.negative(np.divide(l, delta, rate), rate)  # -l / delta
    two_delta, per_delta, den = ws.take_many(3, *delta.shape)
    np.multiply(2.0, delta, two_delta)
    span = np.multiply(2.0, l, ws.take(*l.shape))
    if n_max > 1:
        np.exp(np.multiply(rate, span, ratio), ratio)
    # -a (for the minus side) at the full shape, like every array below
    g, step, gauss, x, term, b, *minus = ws.take_many(6 + len(orders), *shape)
    np.multiply(a, a, g)
    np.exp(np.multiply(np.divide(-0.25, delta, per_delta), g, g), g)
    odd = max(orders)

    def image(d, x, gauss, out):
        # the d-th derivative of exp(-x^2 / (4 delta)) without its factor
        # (-2 delta)^-d, which is applied once to the total
        if d == 0:
            return gauss
        if d == 1:
            return np.multiply(x, gauss, out)
        np.multiply(x, x, out)
        out -= two_delta
        out *= gauss
        return out

    def side(b, totals):
        # the images at x = b + 2nl, n = 1 ... n_max, summed in place per order
        np.exp(np.multiply(rate, np.maximum(np.add(l, b, step), 0.0, out=step), step), step)
        np.multiply(g, step, gauss)
        if odd:
            np.add(b, span, x)
        for d, total in zip(orders, totals):
            if d == 0:
                total[...] = gauss
            else:
                image(d, x, gauss, total)
        for _ in range(1, n_max):
            np.multiply(step, ratio, step)
            np.multiply(gauss, step, gauss)
            if odd:
                np.add(x, span, x)
            for d, total in zip(orders, totals):
                total += image(d, x, gauss, term)

    side(a, outs)
    side(np.negative(a, b), minus)
    norm = np.sqrt(np.multiply(np.pi, delta, per_delta), per_delta)
    for d, plus, other in zip(orders, outs, minus):
        if d == 1:
            plus -= other
        else:
            plus += other
        plus += image(d, a, g, term)
        if d:
            plus /= np.multiply(norm, np.power(np.negative(two_delta, den), d, den), den)
        else:
            plus /= norm
    ws.top = mark
    return outs if isinstance(deriv, tuple) else outs[0]


def _theta_sum(delta, a, l, deriv, outs=None):
    """Theta-series form of the a-derivatives of K; ``deriv`` and ``outs``
    as ``_image_sum``.

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
    shape = np.broadcast(delta, a, l).shape
    if outs is None:
        outs = [np.empty(shape) for _ in orders]
    ws = _local.ws
    mark = ws.top
    w, scale = ws.take_many(2, *l.shape)
    np.divide(np.pi, l, w)
    odd, square, weight = ws.take_many(3, *np.broadcast(delta, l).shape)
    decay = np.multiply(w, w, odd)
    decay *= delta
    ks = _theta_orders(decay.min())
    # sum_k k^d q^(k^2) cos(k phi) for even d, sin(k phi) for odd
    for total in outs:
        total.fill(0.0)
    q = np.exp(np.negative(decay, odd), odd)
    np.multiply(q, q, square)
    weight[...] = q
    # cos(k phi) and sin(k phi) at k - 1, k and k + 1, then 2 cos(phi)
    phase = np.broadcast(a, l).shape
    waves = ws.take_many(7 if 1 in orders else 4, *phase)
    cos, twice = waves[:3], waves[3]
    np.multiply(w, a, twice)
    np.cos(twice, cos[1])
    cos[0].fill(1.0)
    sin = None
    if 1 in orders:
        sin = waves[4:]
        np.sin(twice, sin[1])
        sin[0].fill(0.0)
    np.multiply(2.0, cos[1], twice)
    term = ws.take(*shape)
    now = 1
    for k in ks:
        if k > 1:
            odd *= square
            weight *= odd
            new = (now + 1) % 3
            for wave in (cos, sin) if sin is not None else (cos,):
                np.multiply(twice, wave[now], wave[new])
                wave[new] -= wave[now - 1]
            now = new
        for d, total in zip(orders, outs):
            np.multiply(weight, (sin if d == 1 else cos)[now], term)
            if d:
                term *= float(k ** d)
            total += term
    for d, total in zip(orders, outs):
        if d == 0:
            total *= 2.0
            total += 1.0
        else:
            total *= np.multiply(-2.0, np.power(w, d, scale), scale)
        total /= l
    ws.top = mark
    return outs if isinstance(deriv, tuple) else outs[0]


def _folded_kernels(delta, a, l, orders, outs=None):
    """K and its a-derivatives of the given orders from one pass.

    The argument checks, the fold into [-l, l], the branch split and one
    image or theta sum serve every order in the tuple ``orders``.
    Arguments as ``folded_kernel``; the results, one per order, of their
    broadcast shape, are written to ``outs`` or to fresh arrays when it is
    None, and returned as a list.  The temporaries come from the workspace.
    """
    # checked before broadcasting, so each argument is scanned at its own size
    delta, a, l = (np.asarray(v, dtype=float) for v in (delta, a, l))
    if not (delta > 0.0).all():
        raise ConfigError("time lag delta must be positive")
    if not np.isfinite(a).all():
        raise ConfigError("offset a must be finite")
    if not ((l > 0.0) & (l < math.inf)).all():
        raise ConfigError("width l must be positive and finite")
    shape = np.broadcast(delta, a, l).shape
    if outs is None:
        outs = [np.empty(shape) for _ in orders]
    ws = _local.ws
    mark = ws.top
    span = np.multiply(2.0, l, ws.take(*l.shape))
    fold = np.divide(a, span, ws.take(*np.broadcast(a, l).shape))
    np.rint(fold, fold)
    fold *= span
    a = np.subtract(a, fold, fold)
    cut = np.divide(np.multiply(l, l, span), math.pi, span)
    image = np.less(delta, cut, ws.take_mask(*shape))
    if image.all():
        _image_sum(delta, a, l, orders, outs)
    elif not image.any():
        _theta_sum(delta, a, l, orders, outs)
    else:
        # the branches split element by element, from the arguments copied
        # as rows of one array of the full shape, so that one call gathers
        # a branch's three
        args = ws.take(3, *shape)
        args[0], args[1], args[2] = delta, a, l
        args = args.reshape(3, -1)
        theta = np.logical_not(image, ws.take_mask(*shape))
        for mask, branch in ((image, _image_sum), (theta, _theta_sum)):
            inner = ws.top
            part = ws.take(3 + len(orders), np.count_nonzero(mask))
            args.compress(mask.reshape(-1), 1, part[:3])
            branch(part[0], part[1], part[2], orders, list(part[3:]))
            for out, values in zip(outs, part[3:]):
                out[mask] = values
            ws.top = inner
    ws.top = mark
    return outs


@_scratch
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


# fdlibm's pi/2 in two parts (Cody-Waite): pio2_1 is its first 33 bits, so n
# times twice it is exact for |n| < 2^20, and pio2_1t is the rest of pi/2
_PIO2_1, _PIO2_1T = 1.57079632673412561417e+00, 6.07710050650619224932e-11


def _theta3_deriv(z, q, deriv):
    # theta3(z, q) = l K(delta, z, l) with l = pi/2 and q = exp(-4 delta).
    # z first sheds its nearest multiple of the period pi, taken in two parts,
    # so that folded_kernel's fold by 2 l = fl(pi) has no rounding of pi to add;
    # a non-finite z becomes NaN there, which folded_kernel rejects
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q < 1.0)):
        raise ConfigError("nome q must lie in [0, 1)")
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = -np.log(q) / 4.0
        n = np.rint(z / math.pi)
        z = (z - n * (2.0 * _PIO2_1)) - n * (2.0 * _PIO2_1T)
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
    dt, l, sigma = positive(dt, "dt"), positive(l, "layer width l"), positive(sigma, "sigma")
    return folded_kernel(sigma * sigma * dt, 0.0 if parity == "even" else l, l)
