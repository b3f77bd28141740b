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

A chart is built once: each integral of the term structure is a table
(``_Cumulative``) of Chebyshev series on panels that start at the knots
of every sampled Curve, and a nested integral is a table built from a
table.  A build takes milliseconds, a sample of tau, x and multiplier
about 0.3 ms, and every field takes a scalar or an array of t.  The
divergent-form map spans the whole real line: its tables cover [-R, R]
and double R on demand.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_attributes
from .errors import ConfigError, NumericalError

# Nothing here calls quad any more.  It stays an attribute, imported on
# lookup, only because the benchmark's tracer wraps ``transforms.quad``.
__getattr__ = lazy_attributes(__name__, quad="scipy.integrate:quad")


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


# ----------------------------------------------------------------------
# cumulative integrals as tables
# ----------------------------------------------------------------------

# Chebyshev points of the second kind per panel.  A panel is kept once the
# last two Chebyshev coefficients of f on it are below _TAIL max|f|, or
# once it is narrower than _MIN_PANEL of the interval; an integrand that
# needs more than _MAX_PANELS is rejected.  An inverse takes _NEWTON_STEPS
# from its interpolated start; the error squares at each.
_NODES, _TAIL, _MIN_PANEL, _MAX_PANELS, _NEWTON_STEPS = 20, 1e-15, 1e-6, 4096, 6
_CHEB = np.polynomial.chebyshev
_X = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))
_TO_COEF = np.linalg.inv(_CHEB.chebvander(_X, _NODES - 1))
# the linear maps of a panel's series, as matrices applied to its row of
# coefficients: the antiderivative that is 0 at s = -1 (key 1) or at s = 1
# (key -1), and the antiderivative's values at the nodes
_ANTIDERIVATIVE = {side: _CHEB.chebint(np.eye(_NODES), lbnd=-side).T for side in (1, -1)}
_AT_NODES = _CHEB.chebvander(_X, _NODES).T


def _breaks(lo, hi, *curves):
    """lo, hi and the knots of every sampled curve between them."""
    if not lo < hi:
        raise ConfigError(f"the chart's interval [{lo}, {hi}] is empty")
    pts = np.concatenate([[lo, hi]] + [c._times for c in curves
                                       if getattr(c, "_times", None) is not None])
    return np.unique(pts[(pts >= lo) & (pts <= hi)])


def _nodes(panels):
    """The Chebyshev points of each panel [a, b], none outside it."""
    a, b = panels[:, :1], panels[:, 1:]
    return np.clip(0.5 * (a + b) + 0.5 * (b - a) * _X, a, b)


class _Cumulative:
    """t -> int_anchor^t f on [breaks[0], breaks[-1]], anchored at either end.

    Panels are halved until f's Chebyshev series on each has a tail at
    rounding level; a panel holds the antiderivative's series, zero at its
    end nearer the anchor, plus the integral of the panels in between.
    The inverse is Newton's method with f as the derivative.
    """

    def __init__(self, f, breaks, anchor):
        self._f, self._anchor = f, anchor
        self._lo, self._hi = lo, hi = breaks[0], breaks[-1]
        todo, kept, scale = np.column_stack((breaks[:-1], breaks[1:])), [], 0.0
        while len(todo):
            v = np.asarray(f(_nodes(todo)), dtype=float)
            if not np.all(np.isfinite(v)) or len(todo) > _MAX_PANELS:
                raise NumericalError("integrand not finite or not resolved on the chart's interval")
            scale = max(scale, np.max(np.abs(v)))
            c = v @ _TO_COEF.T
            ok = ((np.max(np.abs(c[:, -2:]), axis=1) <= _TAIL * scale)
                  | (todo[:, 1] - todo[:, 0] <= _MIN_PANEL * (hi - lo)))
            kept.append((todo[ok], c[ok]))
            a, b = todo[~ok].T
            todo = np.column_stack((a, 0.5 * (a + b), 0.5 * (a + b), b)).reshape(-1, 2)
        panels, c = map(np.concatenate, zip(*kept))
        order = np.argsort(panels[:, 0])
        panels, c = panels[order], c[order]
        side = 1 if anchor == lo else -1
        c = (c @ _ANTIDERIVATIVE[side]) * (0.5 * (panels[:, 1:] - panels[:, :1]))
        whole = side * (c @ float(side) ** np.arange(_NODES + 1))
        # running sums of the panel integrals from the anchor
        c[:, 0] += side * np.cumsum(np.append(0.0, whole[::side]))[:-1][::side]
        self._coef, self._edges = c, np.append(panels[:, 0], hi)
        # Newton's starting table: the values at the nodes, each panel's
        # last node being the next one's first
        t = np.append(_nodes(panels)[:, :-1], hi)
        F = np.append((c @ _AT_NODES)[:, :-1], self(hi))
        self._start = (F, t) if F[-1] >= F[0] else (F[::-1], t[::-1])

    def __call__(self, t):
        scalar, t = not isinstance(t, _ARRAYS), np.asarray(t, dtype=float)
        if np.any((t < self._lo) | (t > self._hi)):
            raise ConfigError(f"t outside the chart's interval [{self._lo}, {self._hi}]")
        j = np.searchsorted(self._edges[1:-1], t, side="right")
        a, b = self._edges[j], self._edges[j + 1]
        F = _CHEB.chebval((2.0 * t - a - b) / (b - a), np.moveaxis(self._coef[j], -1, 0),
                          tensor=False)
        F = np.where(t == self._anchor, 0.0, F)
        return float(F) if scalar else F

    def inverse(self, y):
        """t with int_anchor^t f = y, for a table monotone in t."""
        scalar, y = not isinstance(y, _ARRAYS), np.asarray(y, dtype=float)
        t = np.interp(y, *self._start)
        for _ in range(_NEWTON_STEPS):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (self(t) - y) / self._f(t)
            step = np.where(np.isfinite(step), step, 0.0)  # a flat stretch of the clock
            t = np.clip(t - step, self._lo, self._hi)
        if np.any(np.abs(step) > 1e-10 * (self._hi - self._lo)):
            raise ConfigError(f"target {y} outside the chart's time range")
        return float(t) if scalar else t


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
    breaks = _breaks(0.0, T, *vars(ts).values(), v)
    drift = _Cumulative(lambda u: ts.r(u) - ts.q(u), breaks, 0.0)
    tau = _Cumulative(lambda u: 0.5 * v(u) * np.exp(-2.0 * drift(u)), breaks, 0.0)
    dividend = _Cumulative(ts.q, breaks, 0.0)
    return HeatChart(tau_of_t=tau, t_of_tau=tau.inverse,
                     x_of_state=lambda t, K: K * np.exp(-drift(t)),
                     state_of_x=lambda t, x: x * np.exp(drift(t)),
                     multiplier=lambda t, K=None: np.exp(-dividend(t)), layer_clock=True)


# ----------------------------------------------------------------------
# Black-Karasinski-style affine layer chart and ZCB closed form
# ----------------------------------------------------------------------

def bk_layer_chart(ts, a_i, b_i, S, constants=(1.0, 0.0, 0.0, 0.0, 0.0)):
    """Chart reducing the short-rate PDE with rate map a_i + b_i z to heat.

    tau = phi(t) = 1/2 int_t^S sigma^2 psi^2 (shared by all layers),
    x = z psi(t) + rho(t), multiplier = exp[alpha_i(t) z + beta_i(t)],
    with psi = C1 exp(int_S^t kappa) and the remaining coefficients given
    by nested integrals of the term structure.
    """
    c1, c2, c3, c4, c5 = constants
    if c1 <= 0.0:
        raise ConfigError("C1 must be positive for a monotone spatial map")
    a, b = _as_curve(a_i), _as_curve(b_i)
    breaks = _breaks(0.0, S, *vars(ts).values(), a, b)
    table = lambda f: _Cumulative(f, breaks, S)
    kappa_int = table(ts.kappa)
    psi = lambda t: c1 * np.exp(kappa_int(t))
    b_int = table(lambda u: b(u) / psi(u))
    alpha = lambda t: psi(t) * (b_int(t) + c3)
    phi = table(lambda u: -0.5 * ts.sigma(u) ** 2 * psi(u) ** 2)
    rho = table(lambda u: -(ts.kappa(u) * ts.theta(u) + ts.sigma(u) ** 2 * alpha(u)) * psi(u))
    beta = table(lambda u: ts.s(u) + a(u) - 0.5 * alpha(u) * (
        2.0 * ts.kappa(u) * ts.theta(u) + ts.sigma(u) ** 2 * alpha(u)))
    return HeatChart(tau_of_t=lambda t: phi(t) + c2,
                     t_of_tau=lambda tau: phi.inverse(np.subtract(tau, c2)),
                     x_of_state=lambda t, z: z * psi(t) + (rho(t) + c5),
                     state_of_x=lambda t, x: (x - (rho(t) + c5)) / psi(t),
                     multiplier=lambda t, z: np.exp(alpha(t) * z + beta(t) + c4))


def bk_affine_zcb(ts, a_i, b_i, t, S, z, R=1.0):
    """Zero-coupon-bond value A(t,S) exp[B(t,S) R e^z] for an affine layer.

    B(t,S) = exp(int_0^t kappa) int_S^t b_i(m) exp(-int_0^m kappa) dm,
    A(t,S) = exp[int_S^t (a_i + s - B(2 theta kappa + B sigma^2)/2) dm].
    These are alpha and beta of the default bk_layer_chart, so the value is
    its multiplier at the state R e^z, for 0 <= t <= S, one t or an array.
    """
    if np.any(np.asarray(t) > S):
        raise ConfigError(f"need t <= S, got t={t}, S={S}")
    return bk_layer_chart(ts, a_i, b_i, S).multiplier(t, R * math.exp(z))


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
    breaks = _breaks(0.0, horizon, *vars(ts).values(), barrier)
    table = lambda f: _Cumulative(f, breaks, 0.0)
    sig2 = lambda u: ts.sigma(u) ** 2
    drift_int = table(lambda u: ts.kappa(u) * (ts.theta(u) + 0.5 * sig2(u)))
    var_int = table(sig2)
    growth = table(lambda y: np.exp(drift_int(y)))
    a_fn = lambda t: np.exp(drift_int(t) - var_int(t))
    d_fn = lambda t: R * np.exp(-var_int(t)) * growth(t)
    f_fn = lambda t: 0.5 * d_fn(t) * (2.0 * a_fn(t) * ts.kappa(t) - d_fn(t) * sig2(t))
    nu = lambda t: (a_fn(t) / barrier(t)) ** 2 * (i + 0.5) ** 2 / N**2
    tau = _Cumulative(lambda u: -0.5 * sig2(u) * nu(u), breaks, horizon)
    shift = table(lambda u: a_fn(u) * ts.kappa(u) - d_fn(u) * sig2(u))
    log_m = table(lambda u: ts.s(u) - f_fn(u) / nu(u))
    return HeatChart(tau_of_t=tau, t_of_tau=tau.inverse,
                     x_of_state=lambda t, x: x - shift(t),
                     state_of_x=lambda t, xs: xs + shift(t),
                     multiplier=lambda t, x: np.exp(log_m(t)) * np.exp(d_fn(t) / x),
                     layer_clock=True, nu=nu)


# ----------------------------------------------------------------------
# divergent <-> non-divergent form
# ----------------------------------------------------------------------

# a half-line table of the divergent chart doubles R up to this before it
# gives up on a requested x or z
_MAX_REACH = 2.0 ** 200


@dataclass(frozen=True)
class DivergentChart:
    """Spatial map between the divergent and non-divergent heat forms."""

    z_of_x: object
    x_of_z: object
    sigma_sq_of_z: object
    boundary_images: np.ndarray = field(default=None)


def nondivergent_to_divergent(Xi, c1, c2, boundaries=None):
    """Map d/dx(Xi^2 du/dx) to sigma^2(z) d2u/dz2 via z = c2 + c1 int_0^x Xi^-2.

    Returns the forward map z(x), its inverse x(z), the coefficient
    sigma^2(z) = c1^2 / Xi^2(x(z)), each for a scalar or an array, and
    (optionally) the images of given layer boundaries.

    int_0^x Xi^-2 is two tables (``_Cumulative``) anchored at 0, one on
    [-R, 0] and one on [0, R], with panel breaks at every 2^j <= R from 1
    on and at the knots of a sampled Xi; x(z) is the table's inverse.
    R is a power of two, at least 1.  A side's table is built at the
    first call that reaches that side, and rebuilt with R doubled until
    it covers every requested x or brackets every requested z, so Xi must
    be positive on each tabulated interval.  A table only grows, and
    later calls read the largest one built.
    """
    if c1 <= 0.0:
        raise ConfigError(f"c1 must be positive for a monotone map, got {c1}")
    xi = _as_curve(Xi)

    def xi_sq_inv(x):
        val = np.asarray(xi(x), dtype=float)
        if np.any(val <= 0.0):
            i = np.argmax(val <= 0.0)
            raise ConfigError(f"Xi must be positive, got Xi({np.ravel(x)[i]}) = {val.flat[i]}")
        return 1.0 / (val * val)

    tables = {}  # side (1 or -1) -> (R, table on [0, R] or [-R, 0])

    def table(side, R=1.0, reaches=None):
        """The side's table on at least [0, side R], its R doubled until
        reaches(R, table) holds."""
        built, tab = tables.get(side, (0.0, None))
        R = max(R, built)
        while True:
            if R > _MAX_REACH:
                raise NumericalError(f"the divergent chart does not reach the requested "
                                     f"values within |x| <= {_MAX_REACH:g}")
            if R > built:
                lo, hi = sorted((0.0, side * R))
                dyadic = side * 2.0 ** np.arange(round(math.log2(R)) + 1)
                tab = _Cumulative(xi_sq_inv, np.union1d(_breaks(lo, hi, xi), dyadic), 0.0)
            if reaches is None or reaches(R, tab):
                tables[side] = R, tab
                return tab
            R *= 2.0

    def by_side(v, origin, fn):
        """fn(side, entries) on the entries of v above (side 1) and below
        (side -1) origin; 0 where v is origin."""
        scalar, v = not isinstance(v, _ARRAYS), np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"the divergent chart maps finite values only, got {v}")
        out = np.zeros(v.shape)
        for side in (1, -1):
            part = side * (v - origin) > 0.0
            if np.any(part):
                out[part] = fn(side, v[part])
        return float(out) if scalar else out

    def z_of_x(x):
        def integral(side, x):
            R, reach = 1.0, np.max(np.abs(x))
            while R < reach and R <= _MAX_REACH:
                R *= 2.0
            return table(side, R)(x)
        return c2 + c1 * by_side(x, 0.0, integral)

    def x_of_z(z):
        def inverse(side, z):
            # bracketed in z, rounded as z_of_x rounds, so that z_of_x(x)
            # of every |x| <= R is inside
            far = np.max(side * z)
            tab = table(side, reaches=lambda R, tab: far <= side * (c2 + c1 * tab(side * R)))
            return tab.inverse((z - c2) / c1)
        return by_side(z, c2, inverse)

    def sigma_sq_of_z(z):
        val = xi(x_of_z(z))
        return c1 * c1 / (val * val)

    images = None if boundaries is None else z_of_x(np.asarray(boundaries, dtype=float))
    return DivergentChart(z_of_x=z_of_x, x_of_z=x_of_z,
                          sigma_sq_of_z=sigma_sq_of_z, boundary_images=images)
