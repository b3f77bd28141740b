"""Single-layer moving-boundary heat solver via Volterra integral equations.

The unknown boundary gradients of a heat problem on a (possibly moving)
strip y_minus(t) < x < y_plus(t) with unit diffusivity satisfy a coupled
pair of Volterra equations of the second kind, marched over one list of
history pairs (time row, earlier node).  The kernels are image sums over
reflected heat kernels with a complementary Jacobi-theta form: the
image series converges fast for small time lags, the theta series for
large lags.  Once the gradients are known the field anywhere inside the
strip follows by quadrature of a boundary-potential representation.

The march builds its coupling block by block, each block's history pairs
at once, and the field its kernel passes block by block of points.  What
a kernel pass reads and writes (its offsets and kernels, and the coupling
K) comes from the package's per-thread scratch workspace (``_workspace``)
and is released at the end of its block, so a thread keeps one block's
kernel scratch resident (about 3.4 MB at _BLOCK pairs) and later blocks
and calls reuse those pages; the per-pair arithmetic around the passes
is plain numpy.  The public functions release what they took when they
return or raise and return fresh arrays.

Also provided: construction of polynomial internal boundaries that split a
moving strip into uniform sub-strips.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._workspace import _local, _scratch
from .errors import ConfigError, NumericalError, integral, number, positive, reals
from .special_functions import _DECAY, _REACH, _folded_kernels, _theta_orders, folded_kernel
from .transforms import _CHEB, _TAIL, _as_curve, _breaks, _panels, _series_at

_SQRT_PI = math.sqrt(math.pi)


def _derivative(f, t, T):
    """Derivative of a boundary curve at times t in [0, T], one-sided at the ends."""
    h = 1e-6 * max(T, 1.0)
    lo, hi = np.maximum(t - h, 0.0), np.minimum(t + h, T)
    return (f(hi) - f(lo)) / (hi - lo)


# ----------------------------------------------------------------------
# kernels (the image/theta sums are ``folded_kernel``)
# ----------------------------------------------------------------------

def _self_peak(delta, dy):
    """dy / (2 sqrt(pi delta^3)) * exp(-dy^2 / (4 delta)) (the n = 0 image)."""
    return dy / (2.0 * np.sqrt(np.pi * delta) * delta) * np.exp(-(dy * dy) / (4.0 * delta))


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialBoundarySet:
    """Interior boundaries of a moving strip as time polynomials.

    coeffs[i] holds ascending-degree coefficients of interior boundary
    i + 1 (the externals are not stored); valid on [0, horizon].
    """

    coeffs: np.ndarray
    degree: int
    horizon: float

    def evaluate(self, i, t):
        """Value of interior boundary i (0-based) at time(s) t."""
        return np.polynomial.polynomial.polyval(reals(t, "t"), self.coeffs[i])

    @property
    def n_interior(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class GitLayerProblem:
    """Heat problem on a single (possibly moving) strip, unit diffusivity.

    y_minus, y_plus: boundary positions, functions of t;
    chi_minus, chi_plus: Dirichlet data, functions of t;
    u0: initial data, a function of x on [y_minus(0), y_plus(0)];
    T: horizon; M: uniform time steps, an integral number.  Each function
    may be a constant, a Curve or a callable, scalar-only callables
    included; it is stored as a curve (``transforms._as_curve``).
    """

    y_minus: object
    y_plus: object
    chi_minus: object
    chi_plus: object
    u0: object
    T: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "T", positive(self.T, "horizon T"))
        object.__setattr__(self, "M", integral(self.M, "M"))
        if self.M < 2:
            raise ConfigError(f"need at least 2 time steps, got M={self.M}")
        for name in ("y_minus", "y_plus", "chi_minus", "chi_plus", "u0"):
            object.__setattr__(self, name, _as_curve(getattr(self, name)))


@dataclass
class GradientPair:
    """Boundary gradients on the uniform grid t_k = k T / M.

    omega[k] = -du/dx at the left boundary, theta[k] = +du/dx at the
    right boundary, both at time t_k.  A pair from
    ``solve_volterra_single_layer`` also carries the march's sample of its
    problem on ``grid`` (``_march``, which holds that problem), and
    ``git_field_single_layer`` reuses it for that same problem object.
    """

    omega: np.ndarray
    theta: np.ndarray
    grid: np.ndarray
    _march: object = dataclasses.field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # the problem's callables need not pickle; a copy samples afresh
        return dict(self.__dict__, _march=None)


@dataclass(frozen=True)
class GitKernels:
    """The six boundary-potential kernels at one (tau, s, xi)."""

    eta_minus: float
    eta_plus: float
    ups_minus: float
    ups_plus: float
    ups0_minus: float
    ups0_plus: float


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def build_internal_boundaries(chi_minus, chi_plus, N, degree, T):
    """Polynomial interior boundaries splitting [chi_minus, chi_plus] into N strips.

    Each interior boundary interpolates the uniform N-split of the two
    external curves at degree + 1 time samples: t = 0 and t = T always,
    then the first degree - 1 of the minimal-gap time (a node of the
    200-point time sample on which non-crossing is verified), T/2, T/3 and
    2T/3 (never nodes) that lie more than 1e-9 T from the samples taken.
    A T whose power T**degree underflows is a NumericalError.
    """
    N, degree, T = integral(N, "N"), integral(degree, "degree"), positive(T, "horizon T")
    if degree not in (1, 2, 3):
        raise ConfigError(f"degree must be 1, 2 or 3, got {degree}")
    if N < 2:
        raise ConfigError(f"need at least 2 layers, got N={N}")
    cm, cp = _as_curve(chi_minus), _as_curve(chi_plus)
    grid = np.linspace(0.0, T, 200)
    cm_g, cp_g = cm(grid), cp(grid)
    if not np.all(cp_g - cm_g > 0.0):
        raise ConfigError("external boundaries cross: chi_minus < chi_plus required on [0, T]")

    samples = [0.0, T]
    t_min = float(grid[np.argmin(cp_g - cm_g)])
    for c in [t_min, 0.5 * T, T / 3.0, 2.0 * T / 3.0]:
        if len(samples) == degree + 1:
            break
        if all(abs(c - s) > 1e-9 * T for s in samples):
            samples.append(c)
    ts = np.sort(np.array(samples))
    vander = np.vander(ts, degree + 1, increasing=True)
    cm_s, cp_s = cm(ts), cp(ts)
    # the samples of interior boundary i = 1 ... N - 1, one stacked
    # right-hand side each, so every boundary takes the same solve
    rhs = cm_s + np.arange(1, N)[:, None] / N * (cp_s - cm_s)
    try:
        coeffs = np.linalg.solve(vander, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise NumericalError(f"singular degree-{degree} interpolation in t at T = {T!r}")

    curves = np.vstack([cm_g, np.polynomial.polynomial.polyval(grid, coeffs.T), cp_g])
    if not np.all(np.diff(curves, axis=0) > 0.0):
        raise NumericalError(
            "constructed interior boundaries cross on [0, T]; "
            "try a higher polynomial degree"
        )
    return PolynomialBoundarySet(coeffs=coeffs, degree=degree, horizon=T)


def git_kernel_set(tau, s, y_minus, y_plus, xi):
    """The six boundary-potential kernels at time pair (tau, s) and point xi.

    The image series is used for small tau - s and the theta series for
    large, switching at the equal-convergence nome (see ``folded_kernel``).
    """
    tau, s, xi = number(tau, "tau"), number(s, "s"), number(xi, "xi")
    if not s < tau:
        raise ConfigError(f"need s < tau, got s={s}, tau={tau}")
    ym, yp = _as_curve(y_minus), _as_curve(y_plus)
    ymt, ypt, yms, yps = float(ym(tau)), float(yp(tau)), float(ym(s)), float(yp(s))
    l = ypt - ymt
    if not l > 0.0:
        raise ConfigError("boundaries cross: y_minus(tau) < y_plus(tau) required")
    delta = tau - s

    delta_minus = 1.0 / np.sqrt(np.pi * delta) if xi == yms else 0.0
    delta_plus = 1.0 / np.sqrt(np.pi * delta) if xi == yps else 0.0

    eta_m = -delta_minus + folded_kernel(delta, ymt - xi, l)
    eta_p = -delta_plus + folded_kernel(delta, ymt - xi + l, l)
    ups_m = folded_kernel(delta, ymt - xi, l, 1)
    ups_p = folded_kernel(delta, ymt - xi + l, l, 1)
    ups0_m = folded_kernel(delta, ymt - yms, l, 1) + _self_peak(delta, ymt - yms)
    ups0_p = folded_kernel(delta, ymt - yps + l, l, 1) + _self_peak(delta, ypt - yps)
    return GitKernels(float(eta_m), float(eta_p), float(ups_m), float(ups_p),
                      float(ups0_m), float(ups0_p))


# ----------------------------------------------------------------------
# the gradient equations over history pairs
# ----------------------------------------------------------------------

# (row, node) history pairs per block of the march (point, node in the
# field).  A block's pair arrays and batched kernel calls peak near a
# hundred doubles per pair, so its temporaries stay under about 3 MB (a
# block holds at least one row, so they grow with M beyond M = 4096). The
# image sum holds a few arrays of the batch's size, not one per image, so
# bigger blocks mean fewer numpy passes per march for little more memory.
_BLOCK = 4096

# degrees of u0's Fourier table, the first tried and the largest (strips that
# narrow up to about 350-fold), and the most w xi turns over a piece of its sums
_FOURIER_START, _FOURIER_MAX, _TURN = 16, 8192, 48.0


@functools.cache
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [0, 1]: Newton on P_n, no eigensolver."""
    p, x = np.polynomial.Legendre.basis(n), np.cos(np.pi * np.arange(n - 0.25, 0, -1) / (n + 0.5))
    for _ in range(3):
        x = x - p(x) / p.deriv()(x)
    return 0.5 + 0.5 * x, 1.0 / ((1.0 - x * x) * p.deriv()(x) ** 2)


def _u0_rule(s, a, b):
    """Nodes xi and weights times u0(xi), from u0's table, of the 32-node
    rule on the pieces [a, b]: exact to rounding for a panel's series times
    exp(i w xi) while w xi turns by up to _TURN, or times a Gaussian."""
    x, w = _gauss_legendre(32)
    xi = a[:, None] + np.multiply.outer(b - a, x)
    return xi, np.multiply.outer(b - a, w) * _series_at(s.edges, s.coef, xi)


@dataclass(frozen=True)
class _Sampled:
    """A problem sampled for the march: its curves on the time grid t and
    at the interval midpoints, u0 as one table on the strip at t = 0.
    The field adds the walls' velocities on the grid (``slope``), the state
    of the last time asked (``at``) and the last table read (``spectrum``)."""

    problem: GitLayerProblem
    t: np.ndarray
    # rows: the minus and the plus boundary
    y: np.ndarray
    y_mid: np.ndarray
    chi: np.ndarray
    # trapezoid weights of t; an integrand vanishing at the row's own time
    # t_k gives node j < k the full-grid weight q[j]
    q: np.ndarray
    # u0's Chebyshev panels (``transforms._panels``) on [y_minus(0), y_plus(0)]
    edges: np.ndarray
    coef: np.ndarray

    @functools.cached_property
    def fourier(self):
        """The Fourier table of u0, built on first use by ``_initial_terms``
        for the march, its residual and the field.  Its top frequency
        bounds k pi / l on every theta-series row of a width l on the grid,
        whose at most 27 terms give 27 pi <= sqrt(_DECAY) _REACH + pi; a
        narrower strip off the grid falls back to the kernel windows."""
        return _FourierTable(self, (math.sqrt(_DECAY) * _REACH + 2.0 * math.pi)
                             / np.min(self.y[1] - self.y[0]))

    @functools.cached_property
    def slope(self):
        """The walls' velocities y-', y+' on the grid, taken on first use by the field."""
        p = self.problem
        return np.stack([_derivative(p.y_minus, self.t, p.T), _derivative(p.y_plus, self.t, p.T)])

    def at(self, tau):
        """The field's state at tau (``_Instant``); the last one is kept, so
        the points of one tau asked one by one share it."""
        now = self.__dict__.get("_now")
        if now is None or now.tau != tau:
            # written as cached_property writes, past the frozen __setattr__
            now = self.__dict__["_now"] = _Instant(self, tau)
        return now

    def spectrum(self, kw):
        """conj(F(kw)), F u0's Fourier table (``fourier``); the last read is
        kept, so the points of one tau asked one by one read it once."""
        last = self.__dict__.get("_spectrum")
        if last is None or not np.array_equal(last[0], kw):
            last = self.__dict__["_spectrum"] = kw, np.conj(self.fourier(kw))
        return last[1]


def _sample(problem, t):
    """``problem`` sampled on the time grid t, which starts at 0."""
    y = np.stack([problem.y_minus(t), problem.y_plus(t)])
    if not y[1, 0] > y[0, 0]:
        raise ConfigError("boundaries cross at t = 0")
    if not np.all(y[1] > y[0]):
        raise ConfigError("boundaries cross inside the horizon")
    mids = 0.5 * (t[:-1] + t[1:])
    edges, coef = _panels(problem.u0, _breaks(y[0, 0], y[1, 0], problem.u0))
    return _Sampled(problem=problem, t=t, y=y,
                    y_mid=np.stack([problem.y_minus(mids), problem.y_plus(mids)]),
                    chi=np.stack([problem.chi_minus(t), problem.chi_plus(t)]),
                    q=np.convolve(np.diff(t), [0.5, 0.5]), edges=edges, coef=coef)


class _FourierTable:
    """w -> int u0(xi) exp(i w (xi - mid)) dxi on [0, top] over the strip
    [lo, hi] at t = 0, as one Chebyshev series in w, sampled on Chebyshev
    points of the second kind, whose set at degree n holds the set at n/2:
    the degree doubles, sampling only the new points, until the last two
    coefficients are at rounding level (``transforms._TAIL``) of int |u0|,
    and the tail is dropped.  No degree below top (hi - lo) / 4 will do.
    """

    def __init__(self, s, top):
        lo, hi = s.edges[0], s.edges[-1]
        self.mid, self.top = 0.5 * (lo + hi), top
        if top * (hi - lo) / 4.0 > _FOURIER_MAX:
            raise NumericalError("initial data's Fourier table not resolved: "
                                 "the strip narrows too far")
        ends = np.sort(np.r_[s.edges[1:-1], np.linspace(lo, hi, int(top * (hi - lo) / _TURN) + 2)])
        xi, u0w = (v.ravel() for v in _u0_rule(s, ends[:-1], ends[1:]))
        self.mass, floor = u0w.sum(), _TAIL * np.sum(np.abs(u0w))
        step = max(1, _BLOCK // len(u0w))

        def sums(w):
            return np.concatenate([np.exp(1j * np.outer(w[i:i + step], xi - self.mid)) @ u0w
                                   for i in range(0, len(w), step)])

        def points(n, i):
            return 0.5 * top * (1.0 - np.cos(np.pi * i / n))

        n = _FOURIER_START
        v = sums(points(n, np.arange(n + 1)))
        while True:
            # Chebyshev coefficients from the values by the FFT of their even extension
            coef = np.fft.fft(np.concatenate([v, v[-2:0:-1]]))[:n + 1] / n
            coef[[0, n]] *= 0.5
            if np.max(np.abs(coef[-2:])) <= floor:
                break
            if n >= _FOURIER_MAX:
                raise NumericalError("initial data's Fourier table not resolved: "
                                     "the strip narrows too far")
            v = np.insert(v, np.arange(1, n + 1), sums(points(2 * n, np.arange(1, 2 * n, 2))))
            n *= 2
        self.coef = coef[:np.flatnonzero(np.abs(coef) > floor).max(initial=0) + 1]

    def __call__(self, w):
        # chebval steps through 1-D points faster than through an N-D array
        return _CHEB.chebval(1.0 - 2.0 * w.ravel() / self.top, self.coef).reshape(w.shape)


def _initial_terms(s, tau, c, l, deriv):
    """u0 against the strip kernel: int u0(xi) K^(deriv)(tau, c - xi, l) dxi.

    tau and l have shape (R,), the centres c shape (P, R); so has the
    result.  Rows split at tau = (l / _REACH)^2, where the image window
    _REACH sqrt(tau) reaches the strip width.  At and above it the theta
    series needs at most 27 terms and separates in xi:
    int u0(xi) exp(i kw (c - xi)) = exp(i kw (c - mid)) conj(F(kw)),
    F the grid's one Fourier table of u0 (``s.fourier``), read once per
    run of rows of equal width and centres (one run on fixed walls), so a
    row costs O(K), K <= 27.  A theta row whose frequencies pass the
    table's top (a strip narrower than anywhere on the grid) and every row
    below the split sum K by ``_u0_rule`` over the half windows
    c + 2nl +- [0, reach], reach = _REACH sqrt(tau) <= l, of each image,
    clipped to the strip and cut at u0's panel edges.  The theta rows'
    terms and the quadrature's kernel pass are workspace arrays.
    """
    out = np.zeros(c.shape)
    ws = _local.ws
    mark = ws.top
    w = np.pi / l
    decay = w * w * tau
    # the theta rows, with their frequencies k pi / l within the table's top
    theta = tau >= (l / _REACH) ** 2
    if theta.any():
        k = _theta_orders(decay[theta].min())
        theta &= k[-1] * w <= s.fourier.top
    rows = np.flatnonzero(theta)
    if len(rows):
        # the d-th a-derivative of 2 q^(k^2) cos(kw a) is 2 q^(k^2) Re((i kw)^d exp(i kw a))
        key = np.vstack([w[rows], c[:, rows]])
        new = np.append(True, np.any(key[:, 1:] != key[:, :-1], axis=0))  # runs of equal rows
        key, inv = key[:, new], np.cumsum(new) - 1
        kw = np.multiply.outer(key[0], k)
        # exp(i kw (c - mid)) as the powers of its k = 1 term
        wave = np.exp(1j * key[0] * (key[1:] - s.fourier.mid))
        wave = np.repeat(wave[..., None], len(k), axis=-1).cumprod(axis=-1) * s.spectrum(kw)
        wave = wave.imag if deriv % 2 else wave.real
        if deriv:
            wave *= -kw ** deriv
        weight = np.multiply.outer(decay[rows], k * k, out=ws.take(len(rows), len(k)))
        np.exp(np.negative(weight, weight), weight)
        weight *= 2.0
        terms = wave.take(inv, axis=1, out=ws.take(len(c), len(rows), len(k)))
        terms *= weight
        total = terms.sum(axis=-1)
        if deriv == 0:
            total += s.fourier.mass
        out[:, rows] = total / l[rows]
    rows = np.flatnonzero(~theta)
    if len(rows):
        lo, hi = s.edges[0], s.edges[-1]
        cr, span = c[:, rows, None], 2.0 * l[rows, None]
        reach = np.minimum(_REACH * np.sqrt(tau[rows, None]), l[rows, None])
        # images c + 2nl of each centre, n from first; windows out of reach are empty
        first, last = np.ceil((lo - reach - cr) / span), np.floor((hi + reach - cr) / span)
        images = np.arange(int(np.max(last - first)) + 1)
        centre = np.add(first, images, ws.take(*cr.shape[:2], len(images)))
        np.add(cr, np.multiply(span, centre, centre), centre)
        ends = ws.take(3, *centre.shape)
        np.add(centre, np.multiply.outer([-1.0, 0.0, 1.0], reach)[:, None], ends)
        cut = np.clip(s.edges, ends[:2].reshape(-1, 1), ends[1:].reshape(-1, 1),
                      out=ws.take(2 * centre.size, len(s.edges)))
        piece, j = np.nonzero(np.greater(cut[:, 1:], cut[:, :-1],
                                         ws.take_mask(len(cut), len(s.edges) - 1)))
        xi, u0w = _u0_rule(s, cut[piece, j], cut[piece, j + 1])
        at = piece % centre.size // centre.shape[-1]
        r = rows[at % len(rows), None]
        offsets = np.subtract(cr.ravel()[at, None], xi, xi)
        terms = _folded_kernels(tau[r], offsets, l[r], (deriv,), [ws.take(*xi.shape)])[0]
        terms *= u0w
        out[:, rows] = np.bincount(at, terms.sum(axis=1), minlength=cr.size).reshape(-1, len(rows))
    ws.top = mark
    return out


def _eta(delta, a, l):
    """The Stieltjes kernels at the lags delta, shape (2, 2, n): K at the
    offsets a, shape (2, n), of both walls from the minus wall and at
    a + l from the plus wall, each equation's row against each wall's
    data; the self kernels drop the Kronecker spike of the point riding
    its own boundary.  A workspace array, as are the offsets of its pass."""
    ws = _local.ws
    n = a.shape[-1]
    eta = ws.take(2, 2, n)
    mark = ws.top
    offsets = ws.take(4, n)
    offsets[:2] = a
    np.add(a, l, offsets[2:])
    _folded_kernels(delta, offsets, l, (0,), [eta.reshape(4, n)])
    ws.top = mark
    spike = 1.0 / np.sqrt(np.pi * delta)
    eta[0, 0] -= spike
    eta[1, 1] -= spike
    return eta


def _pair_weights(s, k, j):
    """The history weights of the data terms at the pairs (row k, node
    j < k) on the grid s.t, k and j of shape (P,): r and gamma, shape (P,),
    eta, shape (2, 2, P), and the pairs' geometry, each of shape (P,):
    the lag tau - t_j, its square root, sqrt(tau - t_(j+1)), y_minus(tau),
    y_plus(tau) and the width l, tau = t_k.

    The weakly singular term of row k, tau = t_k, integrates
    (chi(s) - chi(tau)) / (2 sqrt(pi (tau-s)^3)) with chi piecewise
    linear, each interval in closed form; summed by parts it reads
        -(sum_j r (chi_(j+1) - chi_j) + gamma slope_j - (chi_k - chi_0) / sqrt(tau)) / sqrt(pi)
    (``_row_terms`` adds the last term), which sums the small increments
    of chi, not chi itself.  The Stieltjes term, the integral of chi
    d(eta) by parts with eta vanishing at s = tau, reads
    -chi(0) eta(tau) - sum_j eta(mid_j) (chi_(j+1) - chi_j), each eta at
    the interval's midpoint (``_eta``, the only workspace array here).
    """
    tau, t_j, t_next = s.t[k], s.t[j], s.t[j + 1]
    ua, ub = tau - t_j, tau - t_next
    sqrt_ua, sqrt_ub = np.sqrt(ua), np.sqrt(ub)
    # on the final interval, ub = 0, chi(s) - chi(tau) is its slope times
    # s - tau: r = 1 / sqrt(ua) and alpha = 0
    r = 1.0 / np.where(j + 1 == k, sqrt_ua, sqrt_ub)
    gamma = (1.0 / sqrt_ua - r) * ua + sqrt_ua - sqrt_ub
    ymt, ypt = s.y[:, k]
    l = ypt - ymt
    eta = _eta(tau - 0.5 * (t_j + t_next), ymt - s.y_mid[:, j], l)
    return r, gamma, eta, (ua, sqrt_ua, sqrt_ub, ymt, ypt, l)


def _row_terms(s, k, weak, parts, i0):
    """The data terms d, shape (2, R), of the rows k, shape (R,), from
    their history sums over ``_pair_weights``: weak, shape (2, R), of
    r (chi_(j+1) - chi_j) + gamma slope_j and parts, shape (2, 2, R), of
    eta (chi_(j+1) - chi_j); i0 holds the rows' initial-data terms.
    Adds the boundary datum, eta(tau) chi(0) and (chi_k - chi_0) / sqrt(tau)."""
    tau, chi = s.t[k], s.chi
    ymt, ypt = s.y[:, k]
    b = np.array([-1.0, 1.0])[:, None] * chi[:, k] / np.sqrt(np.pi * tau)
    weak = (weak - (chi[:, k] - chi[:, :1]) / np.sqrt(tau)) / -_SQRT_PI
    parts = parts + chi[:, 0, None] * _eta(tau, ymt - s.y[:, :1], ypt - ymt)
    stieltjes = parts[:, 1] - parts[:, 0]
    return np.stack([-(i0[0] + b[0] + weak[0] + stieltjes[0]),
                     i0[1] + b[1] - weak[1] + stieltjes[1]])


def _march_rows(s, k0, k1, i0):
    """Rows k0 <= k < k1 of the gradient equations on the grid s.t.

    Row k reads, p its pair (k, j)
        omega_k = d[0] + sum_{j<k} (K[0, p, 0] omega_j + K[0, p, 1] theta_j)
        theta_k = d[1] + sum_{j<k} (K[1, p, 0] omega_j + K[1, p, 1] theta_j)
    with t_k = tau: every kernel carries zero weight at s = tau, so the
    sums stop short of k and the march is one forward substitution.
    Returns d, shape (2, R), and K, shape (2, P, 2), over the P pairs in
    the row-by-row order of ``_pair_weights``; R = k1 - k0.  i0 holds the
    rows' initial-data terms, ``_initial_terms`` at s.y[:, k] with deriv 1.
    K is a workspace array; its pass reads the pair geometry that
    ``_pair_weights`` gathers for the data terms.
    """
    k = np.arange(k0, k1)
    # the history pairs (row k_p, node j < k_p), row by row: row r's
    # pairs start at first[r]
    first = np.cumsum(k) - k
    k_p = np.repeat(k, k)
    n = len(k_p)
    j = np.arange(n) - np.repeat(first, k)
    ws = _local.ws
    K = ws.take(2, n, 2)
    base = ws.top
    dchi = np.diff(s.chi)[:, j]
    w, gamma, eta, (ua, sqrt_ua, sqrt_ub, ymt, ypt, l) = _pair_weights(s, k_p, j)
    weak = dchi / np.diff(s.t)[j] * gamma + w * dchi
    d = _row_terms(s, k, np.add.reduceat(weak, first, axis=-1),
                   np.add.reduceat(eta * dchi, first, axis=-1), i0)

    # moving-boundary memory: kernel = smooth * (tau-s)^(-1/2), integrated
    # with exact sqrt weights and left-endpoint values; regular coupling
    # by the trapezoid rule, the kernels vanishing at s = tau
    y_j = s.y[:, j]
    offsets = ws.take(4, n)
    a = np.subtract(ymt, y_j, offsets[:2])
    np.add(a, l, offsets[2:])
    ups = _folded_kernels(ua, offsets, l, (1,), [ws.take(4, n)])[0]
    peak_m = _self_peak(ua, a[0])
    peak_p = _self_peak(ua, ypt - y_j[1])
    memory = 2.0 * sqrt_ua * (sqrt_ua - sqrt_ub)
    q = s.q[j]
    # columns of the unknowns omega, theta, each over the equations e
    K[0, :, 0] = peak_m * memory - q * (ups[0] + peak_m)
    K[1, :, 0] = q * ups[2]
    K[0, :, 1] = -q * ups[1]
    K[1, :, 1] = q * (ups[3] + peak_p) - peak_p * memory
    ws.top = base
    return d, K


def _lag_rows(s, i0):
    """The data terms d, shape (2, M), of the rows k = 1 ... M of the
    gradient equations on a strip whose walls are constant on the grid
    s.t; they are its gradients, omega_k, theta_k = d[:, k - 1].

    The coupling kernels are K' at the offsets 0 and +-l, where the odd,
    2l-periodic K' vanishes, and the memory term ``_self_peak`` is 0: the
    double-layer term of a fixed wall drops out.  Every weight of
    ``_pair_weights`` at node j of row k depends on the lag t_k - t_j
    alone (up to the rounding of that difference), and row M's pairs hold
    every lag: reversed, they are the weights by lag, and the history
    sums are discrete convolutions with the data.
    """
    M = len(s.t) - 1
    dchi = np.diff(s.chi)
    slope = dchi / np.diff(s.t)
    r, gamma, eta = (w[..., ::-1] for w in _pair_weights(s, np.full(M, M), np.arange(M))[:3])

    def history(lag, data):
        # sum_{j<k} lag[k - j - 1] data[j] for every row k
        return np.convolve(lag, data)[:M]

    weak = np.stack([history(r, dchi[i]) + history(gamma, slope[i]) for i in range(2)])
    parts = np.stack([[history(eta[e, i], dchi[i]) for i in range(2)] for e in range(2)])
    return _row_terms(s, np.arange(1, M + 1), weak, parts, i0)


@_scratch
def solve_volterra_single_layer(problem):
    """March the coupled gradient equations forward on the uniform grid.

    Every kernel carries zero weight at s = tau, so the equations read
    omega = b + K_oo omega + K_ot theta and theta = c + K_to omega + K_tt theta
    with row k coupled to the nodes j < k only: one forward substitution.
    On walls that move, K over a block's history pairs (``_march_rows``)
    makes the march O(M^2) kernel evaluations in a few batched calls
    per block.  On walls constant on the grid the coupling kernels vanish
    and every other kernel depends on the lag alone, so the gradients are
    the data terms of the rows (``_lag_rows``): O(M) kernel evaluations
    plus ``np.convolve``, with no substitution.  The start gradients are
    u0's table differentiated at the walls, and the initial data of all M
    rows are one ``_initial_terms`` call.  The returned pair carries the
    problem and its sample, so the field reuses both.
    """
    M = problem.M
    t = np.linspace(0.0, problem.T, M + 1)
    s = _sample(problem, t)
    i0 = _initial_terms(s, t[1:], s.y[:, 1:], s.y[1, 1:] - s.y[0, 1:], 1)
    # the history (omega_j, theta_j) by rows, so that row k's coefficients
    # of it, interleaved as a (2, 2k) view, take one matvec
    hist = np.empty((M + 1, 2))
    # -u0' at y_minus(0) and u0' at y_plus(0) by the end panels, T_n'(+-1) = (+-1)^(n+1) n^2
    n2 = np.arange(s.coef.shape[1]) ** 2
    hist[0] = 2.0 / np.diff(s.edges)[[0, -1]] * [s.coef[0] @ ((-1) ** n2 * n2), s.coef[-1] @ n2]
    # walls constant on the grid and at its midpoints, where the Stieltjes
    # kernels read them: no coupling, and the rest depends on the lag alone
    if np.all(s.y == s.y[:, :1]) and np.all(s.y_mid == s.y[:, :1]):
        hist[1:] = _lag_rows(s, i0).T
    else:
        ws = _local.ws
        mark = ws.top
        k0 = 1
        while k0 <= M:
            # R rows, R (k0 + R) <= _BLOCK, hold fewer than _BLOCK pairs
            k1 = min(M + 1, k0 + max(1, (math.isqrt(k0 * k0 + 4 * _BLOCK) - k0) // 2))
            d, K = _march_rows(s, k0, k1, i0[:, k0 - 1:k1 - 1])
            f = 0
            for r, k in enumerate(range(k0, k1)):
                hist[k] = d[:, r] + K[:, f:f + k].reshape(2, 2 * k) @ hist[:k].ravel()
                f += k
            ws.top = mark
            k0 = k1
    if not np.all(np.isfinite(hist)):
        raise NumericalError("gradient march produced non-finite values")
    omega, theta = hist.T.copy()
    return GradientPair(omega=omega, theta=theta, grid=t, _march=s)


def check_refinement(problem, rel_tol=0.10):
    """Solve at M and 2M and flag non-convergent refinement.

    Returns the pair of gradient solutions; raises NumericalError when
    the terminal gradients move by more than rel_tol between the grids.
    """
    rel_tol = positive(rel_tol, "rel_tol")
    coarse = solve_volterra_single_layer(problem)
    fine = solve_volterra_single_layer(dataclasses.replace(problem, M=2 * problem.M))
    scale = max(np.max(np.abs(fine.omega)), np.max(np.abs(fine.theta)), 1e-30)
    drift = max(abs(coarse.omega[-1] - fine.omega[-1]), abs(coarse.theta[-1] - fine.theta[-1]))
    if drift > rel_tol * scale:
        raise NumericalError(
            f"gradient march not converging under refinement: drift {drift:.3e} "
            f"exceeds {rel_tol:.0%} of scale {scale:.3e}"
        )
    return coarse, fine


@_scratch
def _gradient_residual(problem, gradients):
    """Self-consistency residual of a solved gradient pair at tau = T.

    Evaluates the last row of the march's equations on a grid twice as
    fine against the interpolated gradients, and returns the max mismatch.
    """
    ts = np.linspace(0.0, problem.T, 2 * problem.M + 1)
    n = len(ts) - 1
    s = _sample(problem, ts)
    i0 = _initial_terms(s, ts[n:], s.y[:, n:], s.y[1, n:] - s.y[0, n:], 1)
    d, K = _march_rows(s, n, n + 1, i0)
    om = np.interp(ts[:-1], gradients.grid, gradients.omega)
    th = np.interp(ts[:-1], gradients.grid, gradients.theta)
    rhs = d[:, 0] + K[..., 0] @ om + K[..., 1] @ th
    return max(abs(gradients.omega[-1] - rhs[0]), abs(gradients.theta[-1] - rhs[1]))


class _Instant:
    """What the field at one time tau needs besides the gradients and x:
    the walls and their data at tau and, for tau > 0, the history nodes
    before tau with their trapezoid weights and the walls and data there.
    ``_Sampled.at`` keeps the last one."""

    def __init__(self, s, tau):
        problem, at = s.problem, np.array([tau])
        self.tau = tau
        self.ymt, self.ypt = float(problem.y_minus(at)[0]), float(problem.y_plus(at)[0])
        self.l = self.ypt - self.ymt
        if not self.l > 0.0:
            raise ConfigError("boundaries cross inside the horizon")
        self.chi = float(problem.chi_minus(at)[0]), float(problem.chi_plus(at)[0])
        if tau > 0.0:
            n = int(np.searchsorted(s.t, tau * (1.0 - 1e-15)))
            hist = s.t[:n]
            self.dh = tau - hist
            self.q = np.convolve(np.diff(np.append(hist, tau)), [0.5, 0.5])[:-1]
            self.y, self.chi_h = s.y[:, :n], s.chi[:, :n]
            # the data's share of the fluxes, chi- y-' and chi+ y+'
            self.drift = self.chi_h * s.slope[:, :n]

    def field(self, s, gradients, x):
        """The field at interior points x, shape (P,), for tau > 0, on the sample s.

        The initial term is u0 against the strip's Green function,
        (K(tau, x - xi) - K(tau, 2 y_minus(tau) - x - xi)) / 2 with K even:
        one ``_initial_terms`` call at every x and its mirror image.  The
        boundary-history integrals take the trapezoid rule; every kernel
        vanishes at s = tau for interior x, so only the history nodes count.
        Green's identity on the moving strip: the flux through y+ is
        (theta + chi+ y+') G(y+) and through y- is (omega - chi- y-') G(y-),
        G = (K(x - y) - K(x + y - 2 y-(tau))) / 2; the double layer takes
        -(K'(x - y) + K'(x + y - 2 y-(tau))) / 2.  K and K' come from one
        kernel pass per block of points, each block about _BLOCK (point,
        node) pairs.
        """
        n = len(self.dh)
        centres = np.concatenate([x, 2.0 * self.ymt - x])[:, None]
        i0 = _initial_terms(s, np.array([self.tau]), centres, np.array([self.l]), 0)[:, 0]
        out = 0.5 * (i0[:len(x)] - i0[len(x):])
        f = np.stack([gradients.omega[:n] - self.drift[0], gradients.theta[:n] + self.drift[1]])
        step = max(1, _BLOCK // n)
        ws = _local.ws
        mark = ws.top
        for p in range(0, len(x), step):
            xp = x[p:p + step, None, None]
            # offsets (direct, mirror) x point x wall (y-, y+) x node
            a, kernel, slope = ws.take_many(3, 2, len(xp), 2, n)
            np.subtract(xp, self.y, a[0])
            np.subtract(np.add(xp, self.y, a[1]), 2.0 * self.ymt, a[1])
            _folded_kernels(self.dh, a, self.l, (0, 1), [kernel, slope])
            upsilon = 0.5 * (kernel[0] - kernel[1])
            lam = -0.5 * (slope[0] + slope[1])
            flux = f[0] * upsilon[:, 0] + f[1] * upsilon[:, 1]
            flux += self.chi_h[0] * lam[:, 0] - self.chi_h[1] * lam[:, 1]
            # summed row by row, so a point's value does not depend on its block
            flux *= self.q
            out[p:p + step] += flux.sum(axis=-1)
            ws.top = mark
        return out


@_scratch
def git_field_single_layer(problem, gradients, x, tau):
    """Field inside the strip at the points x, at one time tau, from solved gradients.

    x is a scalar, giving a float, or an array, giving an ndarray of its
    shape; every point takes the same path.  A point on a wall gives that
    wall's datum (the representation taken by continuity), a point at
    tau = 0 gives u0, and a point outside the strip or a tau outside
    [0, T] (NaN included) raises ``ConfigError``.

    The history nodes are the gradient grid's nodes before tau.  A pair
    from the march of this very ``problem`` object brings the march's
    sample of them, which also keeps the walls' velocities and the state
    of the last tau asked (``_Instant``: the walls at tau, the history
    slice and its weights) and u0's last Fourier-table read, so points
    asked one by one at one tau pay those once.  Any other pair has the
    problem sampled on its grid once per call, so crossing boundaries in
    its history are still found.  A point then costs its kernel sums: its initial term and
    K, K' over the history, O(M).
    """
    tau = number(tau, "time tau")
    if not 0.0 <= tau <= problem.T + 1e-12 * max(problem.T, 1.0):
        raise ConfigError(f"time {tau} outside the horizon [0, {problem.T}]")
    grid = gradients.grid
    if tau > grid[-1] + 1e-12 * max(problem.T, 1.0):
        raise ConfigError("gradient grid does not cover the requested time")
    s = gradients._march
    if s is None or s.problem is not problem or s.t is not grid:
        s = _sample(problem, grid)
    now = s.at(tau)
    x = reals(x, "x")
    shape, x = x.shape, x.ravel()
    tol = 1e-12 * max(now.l, 1.0)
    outside = ~((x >= now.ymt - tol) & (x <= now.ypt + tol))
    if outside.any():
        raise ConfigError(f"point x={x[outside][0]} outside the strip [{now.ymt}, {now.ypt}] "
                          f"at tau={tau}")
    out = np.empty(x.shape)
    minus = np.abs(x - now.ymt) <= tol
    plus = ~minus & (np.abs(x - now.ypt) <= tol)
    out[minus], out[plus] = now.chi
    inside = ~(minus | plus)
    if inside.any():
        out[inside] = problem.u0(x[inside]) if tau == 0.0 else now.field(s, gradients, x[inside])
    return float(out[0]) if shape == () else out.reshape(shape)
