"""Changes of variables mapping pricing PDEs onto the heat equation.

Three model families are supported: the Dupire local-variance equation in
strike space, the Black-Karasinski-style short-rate PDE with a piecewise
linear rate map (including the affine zero-coupon-bond closed form), and
the logistic (Verhulst) short-rate model.  A fourth helper converts the
divergent form of the heat equation d/dx(Xi^2 du/dx) to the
non-divergent form sigma^2(z) d2u/dz2.

Every map is packaged as a HeatChart: plain data (time map, spatial map,
multiplier and inverses) that a heat solver can consume without knowing
anything about the originating model.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigError, NumericalError


# ----------------------------------------------------------------------
# curves and term structures
# ----------------------------------------------------------------------

# arguments a curve evaluates as arrays; anything else is a scalar
_ARRAYS = (np.ndarray, list, tuple)


class Curve:
    """Scalar function of time: a constant or linearly interpolated samples."""

    def __init__(self, times=None, values=None, constant=None):
        if constant is not None:
            self._const = float(constant)
            self._times = None
            self._values = None
        else:
            times = np.asarray(times, dtype=float)
            values = np.asarray(values, dtype=float)
            if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
                raise ConfigError("sampled curve needs matching 1-D times and values")
            if np.any(np.diff(times) <= 0.0):
                raise ConfigError("curve sample times must be strictly increasing")
            self._const = None
            self._times = times
            self._values = values

    def __call__(self, t):
        if self._const is None:
            return np.interp(t, self._times, self._values)
        if isinstance(t, _ARRAYS):
            return np.full(np.shape(t), self._const)
        return self._const


class _CallableCurve(Curve):
    """A callable under the curve contract of ``_as_curve``."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, t):
        if not isinstance(t, _ARRAYS):
            return self._fn(t)
        t = np.asarray(t, dtype=float)
        try:
            v = np.asarray(self._fn(t), dtype=float)
            if v.shape == t.shape:
                return v
        except (TypeError, ValueError):
            pass
        return np.array([float(self._fn(s)) for s in t.ravel()]).reshape(t.shape)


def _as_curve(obj):
    """The one way an input becomes a curve: a constant becomes
    ``Curve(constant=c)``, a Curve is returned as it is, and any other
    callable f is wrapped once.  A scalar t gives f(t) by a direct call; an
    array gives a float array of its shape, from f(t) when that has the
    shape, else element by element, so scalar-only callables work."""
    if isinstance(obj, Curve):
        return obj
    if callable(obj):
        return _CallableCurve(obj)
    return Curve(constant=obj)


@dataclass(frozen=True)
class TermStructure:
    """Named time curves of a short-rate / local-vol model.

    Each field may be a constant, a callable of t, or a Curve.
    """

    r: object = 0.0
    q: object = 0.0
    kappa: object = 0.0
    theta: object = 0.0
    sigma: object = 0.0
    s: object = 0.0

    def __post_init__(self):
        for name in ("r", "q", "kappa", "theta", "sigma", "s"):
            object.__setattr__(self, name, _as_curve(getattr(self, name)))


@dataclass(frozen=True)
class HeatChart:
    """A change of variables onto the heat equation, as data.

    tau_of_t maps model time to heat time; x_of_state(t, state) maps the
    model state to the heat spatial variable; multiplier(t, state) is the
    positive prefactor carrying the heat solution back to the model
    value.  state_of_x and t_of_tau invert the two maps.  layer_clock
    marks charts whose heat time depends on the layer index; nu, when
    present, is the layer's effective squared-state level.
    """

    tau_of_t: object
    x_of_state: object
    multiplier: object
    state_of_x: object
    t_of_tau: object
    layer_clock: bool = False
    nu: object = None


def _quad(f, a, b):
    """Adaptive quadrature of f over [a, b] (signed), tight tolerance."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    val, err = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    if not math.isfinite(val):
        raise NumericalError(f"quadrature failed on [{a}, {b}]")
    return sign * val


def _invert_monotone(fn, target, lo, hi):
    """Root of fn(t) = target on [lo, hi] for monotone fn."""
    g = lambda t: fn(t) - target
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ConfigError(f"target {target} outside the chart's time range")
    return float(brentq(g, lo, hi, xtol=1e-14, rtol=1e-14))


# ----------------------------------------------------------------------
# Dupire local variance
# ----------------------------------------------------------------------

def dupire_to_heat(ts, v_i, T):
    """Chart for the strike-space local-variance equation on one bucket.

    x = K exp(-int_0^t (r-q)), tau = 1/2 int_0^t v_i(s) exp(-2 int_0^s (r-q)),
    multiplier = exp(-int_0^t q).  The heat clock depends on the bucket's
    variance curve, hence layer_clock is set.
    """
    v = _as_curve(v_i)
    if np.any(v(np.linspace(0.0, T, 101)) <= 0.0):
        raise ConfigError("bucket variance must be positive on [0, T]")
    drift = lambda u: ts.r(u) - ts.q(u)
    drift_int = lambda t: _quad(drift, 0.0, t)

    def tau_of_t(t):
        return 0.5 * _quad(lambda u: v(u) * math.exp(-2.0 * drift_int(u)), 0.0, t)

    def x_of_state(t, K):
        return K * math.exp(-drift_int(t))

    def state_of_x(t, x):
        return x * math.exp(drift_int(t))

    def multiplier(t, K=None):
        return math.exp(-_quad(ts.q, 0.0, t))

    def t_of_tau(tau):
        return _invert_monotone(tau_of_t, tau, 0.0, T)

    return HeatChart(tau_of_t=tau_of_t, x_of_state=x_of_state,
                     multiplier=multiplier, state_of_x=state_of_x,
                     t_of_tau=t_of_tau, layer_clock=True)


# ----------------------------------------------------------------------
# Black-Karasinski-style affine layer chart and ZCB closed form
# ----------------------------------------------------------------------

def bk_layer_chart(ts, a_i, b_i, S, constants=(1.0, 0.0, 0.0, 0.0, 0.0)):
    """Chart reducing the short-rate PDE with rate map a_i + b_i z to heat.

    tau = phi(t) = 1/2 int_t^S sigma^2 psi^2 (shared by all layers),
    x = z psi(t) + rho(t), multiplier = exp[alpha_i(t) z + beta_i(t)],
    with psi = C1 exp(int_S^t kappa) and the remaining coefficients given
    by nested quadratures of the term structure.
    """
    a = _as_curve(a_i)
    b = _as_curve(b_i)
    c1, c2, c3, c4, c5 = constants
    if c1 <= 0.0:
        raise ConfigError("C1 must be positive for a monotone spatial map")

    def psi(t):
        return c1 * math.exp(_quad(ts.kappa, S, t))

    def phi(t):
        return 0.5 * _quad(lambda u: ts.sigma(u) ** 2 * psi(u) ** 2, t, S) + c2

    def alpha(t):
        return psi(t) * (_quad(lambda u: b(u) / psi(u), S, t) + c3)

    def rho(t):
        return -_quad(lambda u: (ts.kappa(u) * ts.theta(u)
                                 + ts.sigma(u) ** 2 * alpha(u)) * psi(u), S, t) + c5

    def beta(t):
        drift = -0.5 * _quad(lambda u: alpha(u) * (2.0 * ts.kappa(u) * ts.theta(u)
                                                   + ts.sigma(u) ** 2 * alpha(u)), S, t)
        src = _quad(lambda u: ts.s(u) + a(u), S, t)
        return drift + src + c4

    def tau_of_t(t):
        return phi(t)

    def x_of_state(t, z):
        return z * psi(t) + rho(t)

    def state_of_x(t, x):
        return (x - rho(t)) / psi(t)

    def multiplier(t, z):
        return math.exp(alpha(t) * z + beta(t))

    def t_of_tau(tau):
        return _invert_monotone(phi, tau, 0.0, S)

    return HeatChart(tau_of_t=tau_of_t, x_of_state=x_of_state,
                     multiplier=multiplier, state_of_x=state_of_x,
                     t_of_tau=t_of_tau, layer_clock=False)


def bk_affine_zcb(ts, a_i, b_i, t, S, z, R=1.0):
    """Zero-coupon-bond value A(t,S) exp[B(t,S) R e^z] for an affine layer.

    B(t,S) = exp(int_0^t kappa) int_S^t b_i(m) exp(-int_0^m kappa) dm,
    A(t,S) = exp[int_S^t (a_i + s - B(2 theta kappa + B sigma^2)/2) dm].
    """
    if t > S:
        raise ConfigError(f"need t <= S, got t={t}, S={S}")
    if t == S:
        return 1.0
    a = _as_curve(a_i)
    b = _as_curve(b_i)

    def kappa_int(m):
        return _quad(ts.kappa, 0.0, m)

    def big_b(tt):
        return math.exp(kappa_int(tt)) * _quad(lambda m: b(m) * math.exp(-kappa_int(m)), S, tt)

    log_a = _quad(
        lambda m: a(m) + ts.s(m)
        - 0.5 * big_b(m) * (2.0 * ts.theta(m) * ts.kappa(m) + big_b(m) * ts.sigma(m) ** 2),
        S, t,
    )
    return math.exp(log_a) * math.exp(big_b(t) * R * math.exp(z))


# ----------------------------------------------------------------------
# Verhulst (logistic) short-rate model
# ----------------------------------------------------------------------

def verhulst_chart(ts, R, i, N, L, horizon):
    """Chart for layer i of the logistic short-rate barrier problem.

    Composes three substitutions: x = a(t)/rbar with the source shift,
    the prefactor exp(d(t)/x), and the final heat map with the layer's
    effective level nu_i(t) = y(t)^2 (i + 1/2)^2 / N^2, y = a/L.  The
    heat clock tau depends on the layer, hence layer_clock is set.
    """
    if not 0 <= i < N:
        raise ConfigError(f"layer index {i} outside 0..{N - 1}")
    barrier = _as_curve(L)
    if np.any(barrier(np.linspace(0.0, horizon, 101)) <= 0.0):
        raise ConfigError("barrier L(t) must be positive on [0, horizon]")

    theta_t = lambda u: ts.theta(u) + 0.5 * ts.sigma(u) ** 2
    drift = lambda u: ts.kappa(u) * theta_t(u)

    def a_fn(t):
        return math.exp(_quad(lambda u: drift(u) - ts.sigma(u) ** 2, 0.0, t))

    def d_fn(t):
        inner = _quad(lambda y: math.exp(_quad(drift, 0.0, y)), 0.0, t)
        return R * math.exp(-_quad(lambda u: ts.sigma(u) ** 2, 0.0, t)) * inner

    def g_fn(t):
        return a_fn(t) * ts.kappa(t) - d_fn(t) * ts.sigma(t) ** 2

    def f_fn(t):
        d = d_fn(t)
        return 0.5 * d * (2.0 * a_fn(t) * ts.kappa(t) - d * ts.sigma(t) ** 2)

    def nu(t):
        y = a_fn(t) / barrier(t)
        return y * y * (i + 0.5) ** 2 / N**2

    def tau_of_t(t):
        return 0.5 * _quad(lambda u: ts.sigma(u) ** 2 * nu(u), t, horizon)

    def x_of_state(t, x):
        return x - _quad(g_fn, 0.0, t)

    def state_of_x(t, xs):
        return xs + _quad(g_fn, 0.0, t)

    def multiplier(t, x):
        damp = math.exp(-_quad(lambda u: f_fn(u) / nu(u), 0.0, t))
        return damp * math.exp(d_fn(t) / x) * math.exp(_quad(ts.s, 0.0, t))

    def t_of_tau(tau):
        return _invert_monotone(tau_of_t, tau, 0.0, horizon)

    chart = HeatChart(tau_of_t=tau_of_t, x_of_state=x_of_state,
                      multiplier=multiplier, state_of_x=state_of_x,
                      t_of_tau=t_of_tau, layer_clock=True, nu=nu)
    return chart


# ----------------------------------------------------------------------
# divergent <-> non-divergent form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DivergentChart:
    """Spatial map between the divergent and non-divergent heat forms."""

    z_of_x: object
    x_of_z: object
    sigma_sq_of_z: object
    boundary_images: np.ndarray = field(default=None)


def nondivergent_to_divergent(Xi, c1, c2, boundaries=None):
    """Map d/dx(Xi^2 du/dx) to sigma^2(z) d2u/dz2 via z = c2 + c1 int Xi^-2.

    Returns the forward map z(x), its inverse x(z) by monotone
    root-finding, the coefficient sigma^2(z) = c1^2 / Xi^2(x(z)), and
    (optionally) the images of given layer boundaries.
    """
    if c1 <= 0.0:
        raise ConfigError(f"c1 must be positive for a monotone map, got {c1}")
    xi = _as_curve(Xi)

    def xi_sq_inv(x):
        val = xi(x)
        if val <= 0.0:
            raise ConfigError(f"Xi must be positive, got Xi({x}) = {val}")
        return 1.0 / (val * val)

    def z_of_x(x):
        return c2 + c1 * _quad(xi_sq_inv, 0.0, x)

    def x_of_z(z):
        target = z
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if z_of_x(lo) <= target:
                break
            lo *= 2.0
        else:
            raise NumericalError("failed to bracket the inverse map from below")
        for _ in range(200):
            if z_of_x(hi) >= target:
                break
            hi *= 2.0
        else:
            raise NumericalError("failed to bracket the inverse map from above")
        return float(brentq(lambda x: z_of_x(x) - target, lo, hi,
                            xtol=1e-14, rtol=1e-15))

    def sigma_sq_of_z(z):
        x = x_of_z(z)
        val = xi(x)
        return c1 * c1 / (val * val)

    images = None
    if boundaries is not None:
        images = np.array([z_of_x(y) for y in np.asarray(boundaries, dtype=float)])
    return DivergentChart(z_of_x=z_of_x, x_of_z=x_of_z,
                          sigma_sq_of_z=sigma_sq_of_z, boundary_images=images)
