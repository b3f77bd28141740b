"""Single-layer moving-boundary heat solver via Volterra integral equations.

The unknown boundary gradients of a heat problem on a (possibly moving)
strip y_minus(t) < x < y_plus(t) with unit diffusivity satisfy a coupled
pair of Volterra equations of the second kind.  The kernels are image sums
over reflected heat kernels with a complementary Jacobi-theta form: the
image series converges fast for small time lags, the theta series for
large lags.  Once the gradients are known the field anywhere inside the
strip follows by quadrature of a boundary-potential representation.

Also provided: construction of polynomial internal boundaries that split a
moving strip into uniform sub-strips.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .special_functions import _DECAY, folded_kernel

_SQRT_PI = math.sqrt(math.pi)


def _as_callable(f):
    """Wrap a constant into a vectorized function of t."""
    if callable(f):
        return f
    c = float(f)
    return lambda t: np.full_like(np.asarray(t, dtype=float), c)


def _vec(f, t):
    """Evaluate f at scalar-or-array t, tolerating non-vectorized callables."""
    t = np.asarray(t, dtype=float)
    try:
        v = np.asarray(f(t), dtype=float)
        if v.shape == t.shape:
            return v
    except (TypeError, ValueError):
        pass
    flat = np.array([float(f(s)) for s in np.atleast_1d(t)])
    return flat.reshape(t.shape)


def _derivative(f, t, scale):
    """Central-difference derivative of a boundary function."""
    h = 1e-6 * max(scale, 1.0)
    return (_vec(f, np.asarray(t, dtype=float) + h) - _vec(f, np.asarray(t, dtype=float) - h)) / (2.0 * h)


# ----------------------------------------------------------------------
# kernels (the image/theta sums are ``folded_kernel``)
# ----------------------------------------------------------------------

def _self_peak(delta, dy):
    """dy / (2 sqrt(pi delta^3)) * exp(-dy^2 / (4 delta)) (the n = 0 image)."""
    delta = np.asarray(delta, dtype=float)
    dy = np.asarray(dy, dtype=float)
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
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs[i])

    def curve(self, i):
        """Interior boundary i as a callable of time."""
        c = self.coeffs[i]
        return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)

    @property
    def n_interior(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class GitLayerProblem:
    """Heat problem on a single (possibly moving) strip, unit diffusivity.

    y_minus, y_plus: boundary positions (constants or callables of t);
    chi_minus, chi_plus: Dirichlet data (constants or callables);
    u0: initial data, callable of x; T: horizon; M: uniform time steps;
    n_xi: quadrature nodes for integrals against the initial data.
    """

    y_minus: object
    y_plus: object
    chi_minus: object
    chi_plus: object
    u0: object
    T: float
    M: int
    n_xi: int = 2001

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ConfigError(f"horizon T must be positive and finite, got {self.T}")
        if self.M < 2:
            raise ConfigError(f"need at least 2 time steps, got M={self.M}")
        if self.n_xi < 3:
            raise ConfigError(f"need at least 3 quadrature nodes, got n_xi={self.n_xi}")


@dataclass
class GradientPair:
    """Boundary gradients on the uniform grid t_k = k T / M.

    omega[k] = -du/dx at the left boundary, theta[k] = +du/dx at the
    right boundary, both at time t_k.
    """

    omega: np.ndarray
    theta: np.ndarray
    grid: np.ndarray


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
    plus the minimal-gap time for degree >= 2 and a mid-horizon sample
    for degree 3.  Non-crossing is verified on a 200-point time sample.
    """
    if degree not in (1, 2, 3):
        raise ConfigError(f"degree must be 1, 2 or 3, got {degree}")
    if N < 2:
        raise ConfigError(f"need at least 2 layers, got N={N}")
    cm = _as_callable(chi_minus)
    cp = _as_callable(chi_plus)
    grid = np.linspace(0.0, T, 200)
    cm_g = _vec(cm, grid)
    cp_g = _vec(cp, grid)
    if np.any(cp_g - cm_g <= 0.0):
        raise ConfigError("external boundaries cross: chi_minus < chi_plus required on [0, T]")

    samples = [0.0, T]
    if degree >= 2:
        t_min = float(grid[np.argmin(cp_g - cm_g)])
        candidates = [t_min, 0.5 * T, T / 3.0, 2.0 * T / 3.0]
    else:
        candidates = []
    if degree == 3:
        candidates += [0.5 * T, 0.25 * T, 0.75 * T]
    for c in candidates:
        if len(samples) == degree + 1:
            break
        if all(abs(c - s) > 1e-9 * max(T, 1.0) for s in samples):
            samples.append(c)
    ts = np.sort(np.array(samples))
    vander = np.vander(ts, degree + 1, increasing=True)
    cm_s = _vec(cm, ts)
    cp_s = _vec(cp, ts)
    coeffs = np.empty((N - 1, degree + 1))
    for i in range(1, N):
        targets = cm_s + (i / N) * (cp_s - cm_s)
        coeffs[i - 1] = np.linalg.solve(vander, targets)

    curves = [cm_g]
    for i in range(N - 1):
        curves.append(np.polynomial.polynomial.polyval(grid, coeffs[i]))
    curves.append(cp_g)
    for lo, hi in zip(curves[:-1], curves[1:]):
        if np.any(hi - lo <= 0.0):
            raise NumericalError(
                "constructed interior boundaries cross on [0, T]; "
                "try a higher polynomial degree"
            )
    return PolynomialBoundarySet(coeffs=coeffs, degree=degree, horizon=float(T))


def git_kernel_set(tau, s, y_minus, y_plus, xi):
    """The six boundary-potential kernels at time pair (tau, s) and point xi.

    The image series is used for small tau - s and the theta series for
    large, switching at the equal-convergence nome (see ``folded_kernel``).
    """
    if not s < tau:
        raise ConfigError(f"need s < tau, got s={s}, tau={tau}")
    ym = _as_callable(y_minus)
    yp = _as_callable(y_plus)
    ymt = float(_vec(ym, tau))
    ypt = float(_vec(yp, tau))
    yms = float(_vec(ym, s))
    yps = float(_vec(yp, s))
    l = ypt - ymt
    if l <= 0.0:
        raise ConfigError("boundaries cross: y_minus(tau) < y_plus(tau) required")
    delta = tau - s
    xi = float(xi)

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
# the gradient equations as kernel tables
# ----------------------------------------------------------------------

# (row, node) entries per block of kernel tables.  A batched kernel call
# holds a few dozen doubles per entry, so a block's temporaries stay near
# a quarter of a megabyte (a block holds at least one row, so they grow
# with M beyond M = 1024).
_BLOCK = 1024


@dataclass(frozen=True)
class _Sampled:
    """A problem sampled for the march: its curves on the time grid t and
    at the interval midpoints, u0 on the quadrature nodes xi."""

    t: np.ndarray
    # rows: the minus and the plus boundary
    y: np.ndarray
    y_mid: np.ndarray
    chi: np.ndarray
    # trapezoid weights of t; an integrand vanishing at the row's own time
    # t_k gives node j < k the full-grid weight q[j]
    q: np.ndarray
    xi: np.ndarray
    # u0 at xi times the trapezoid weights of xi
    u0w: np.ndarray


def _trapezoid_weights(x):
    """Weights w with w @ f(x) the trapezoid rule for f on the nodes x."""
    half = 0.5 * np.diff(x)
    w = np.zeros(len(x))
    w[:-1] += half
    w[1:] += half
    return w


def _sample(problem, t):
    """``problem`` sampled on the time grid t, which starts at 0."""
    ym = _as_callable(problem.y_minus)
    yp = _as_callable(problem.y_plus)
    ym0 = float(_vec(ym, 0.0))
    yp0 = float(_vec(yp, 0.0))
    if yp0 <= ym0:
        raise ConfigError("boundaries cross at t = 0")
    y = np.stack([_vec(ym, t), _vec(yp, t)])
    if np.any(y[1] <= y[0]):
        raise ConfigError("boundaries cross inside the horizon")
    mids = 0.5 * (t[:-1] + t[1:])
    chi = [_as_callable(problem.chi_minus), _as_callable(problem.chi_plus)]
    xi = np.linspace(ym0, yp0, problem.n_xi)
    return _Sampled(t=t, y=y, y_mid=np.stack([_vec(ym, mids), _vec(yp, mids)]),
                    chi=np.stack([_vec(c, t) for c in chi]), q=_trapezoid_weights(t),
                    xi=xi, u0w=_vec(problem.u0, xi) * _trapezoid_weights(xi))


def _initial_terms(s, tau, ymt, l):
    """u0 against dK/da at a = ymt - xi (omega) and ymt - xi + l (theta).

    Rows on the image branch of ``folded_kernel`` call it.  On the theta
    branch the integrand separates in xi,
    sin(kw (ymt - xi)) = sin(kw ymt) cos(kw xi) - cos(kw ymt) sin(kw xi),
    the harmonics follow from cos(w xi), sin(w xi) by angle addition, and
    the +l side differs only by (-1)^k, so one pass over xi gives both.
    """
    i0 = np.empty((2, len(tau)))
    step = max(1, _BLOCK // len(s.xi))
    image = tau < l * l / math.pi  # folded_kernel's switch
    rows = np.flatnonzero(image)
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step, None]
        a = ymt[r] - s.xi
        i0[:, r[:, 0]] = folded_kernel(tau[r], np.stack([a, a + l[r]]), l[r], 1) @ s.u0w
    rows = np.flatnonzero(~image)
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step]
        w = np.pi / l[r]
        decay = w * w * tau[r]
        c1 = np.cos(np.multiply.outer(w, s.xi))
        s1 = np.sin(np.multiply.outer(w, s.xi))
        ck, sk = c1, s1
        total = np.zeros((2, len(r)))
        for k in range(1, int(math.ceil(math.sqrt(_DECAY / decay.min()))) + 1):
            kw = k * w
            # d/da of 2 q^(k^2) cos(kw a), integrated against u0
            term = -2.0 * np.exp(-decay * k * k) * kw * (
                np.sin(kw * ymt[r]) * (ck @ s.u0w) - np.cos(kw * ymt[r]) * (sk @ s.u0w))
            total[0] += term
            total[1] += term if k % 2 == 0 else -term
            ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
        i0[:, r] = total / l[r]
    return i0


def _march_rows(s, k0, k1):
    """Rows k0 <= k < k1 of the gradient equations on the grid s.t.

    Row k reads
        omega_k = d[0] + sum_{j<k} (K[0, 0, j] omega_j + K[0, 1, j] theta_j)
        theta_k = d[1] + sum_{j<k} (K[1, 0, j] omega_j + K[1, 1, j] theta_j)
    with t_k = tau: every kernel carries zero weight at s = tau, so the
    sums stop short of k and the march is one forward substitution.
    Returns d, shape (2, R), and K, shape (2, 2, R, k1 - 1), zero where
    j >= k; R = k1 - k0.
    """
    t = s.t
    k = np.arange(k0, k1)
    tau = t[k]
    ymt, ypt = s.y[:, k]
    l = ypt - ymt
    chi = s.chi
    # the history pairs (row r, node j < k0 + r)
    r, j = np.nonzero(np.arange(k1 - 1) < k[:, None])
    tau_r, ymt_r, l_r = tau[r], ymt[r], l[r]
    ua = tau_r - t[j]
    ub = tau_r - t[j + 1]
    sqrt_ua = np.sqrt(ua)
    sqrt_ub = np.sqrt(ub)

    def table(values):
        out = np.zeros(values.shape[:-1] + (len(k), k1 - 1))
        out[..., r, j] = values
        return out

    # initial-data terms and the boundary-datum singular terms
    i0 = _initial_terms(s, tau, ymt, l)
    b = np.array([-1.0, 1.0])[:, None] * chi[:, k] / np.sqrt(np.pi * tau)

    # weakly singular differences: the integral of
    # (chi(s) - chi(tau)) / (2 sqrt(pi (tau-s)^3)) with chi piecewise
    # linear, each interval in closed form, linear in chi; on the final
    # interval chi(s) - chi(tau) is its slope times (s - tau)
    with np.errstate(divide="ignore"):
        alpha = np.where(j + 1 == k[r], 0.0, 1.0 / sqrt_ua - 1.0 / sqrt_ub)
    gamma = alpha * ua + sqrt_ua - sqrt_ub
    slope = np.diff(chi)[:, j] / (t[j + 1] - t[j])
    weak = table(-(alpha * (chi[:, j] - chi[:, k][:, r]) + gamma * slope) / _SQRT_PI).sum(axis=-1)

    # Stieltjes terms: integral of chi d(eta) by parts, eta vanishing at
    # s = tau, -chi(0) eta(0) - sum_j eta(mid_j) (chi_{j+1} - chi_j), for
    # the eta of each equation against each boundary's data; the self
    # kernels drop the Kronecker spike of the point riding its own boundary
    dm = tau_r - 0.5 * (t[j] + t[j + 1])
    a = ymt_r - s.y_mid[:, j]
    eta = folded_kernel(dm, np.concatenate([a, a + l_r]), l_r).reshape(2, 2, -1)
    spike = 1.0 / np.sqrt(np.pi * dm)
    eta[0, 0] -= spike
    eta[1, 1] -= spike
    a = ymt - s.y[:, :1]
    eta0 = folded_kernel(tau, np.concatenate([a, a + l]), l).reshape(2, 2, -1)
    spike0 = 1.0 / np.sqrt(np.pi * tau)
    eta0[0, 0] -= spike0
    eta0[1, 1] -= spike0
    parts = chi[:, 0, None] * eta0 + (table(eta) * np.diff(chi)[:, None, :k1 - 1]).sum(axis=-1)
    stieltjes = parts[:, 1] - parts[:, 0]

    # moving-boundary memory: kernel = smooth * (tau-s)^(-1/2), integrated
    # with exact sqrt weights and left-endpoint values; regular coupling
    # by the trapezoid rule, the kernels vanishing at s = tau
    a = ymt_r - s.y[:, j]
    ups = folded_kernel(ua, np.concatenate([a, a + l_r]), l_r, 1)
    peak_m = _self_peak(ua, a[0])
    peak_p = _self_peak(ua, ypt[r] - s.y[1, j])
    memory = 2.0 * sqrt_ua * (sqrt_ua - sqrt_ub)
    q = s.q[j]
    K = table(np.stack([
        [peak_m * memory - q * (ups[0] + peak_m), -q * ups[1]],
        [q * ups[2], q * (ups[3] + peak_p) - peak_p * memory],
    ]))

    d = np.stack([-(i0[0] + b[0] + weak[0] + stieltjes[0]),
                  i0[1] + b[1] - weak[1] + stieltjes[1]])
    return d, K


def _one_sided_gradient(u0, x0, direction, span):
    """Second-order one-sided du0/dx at x0, stepping into the strip."""
    h = direction * 1e-5 * span
    f0 = float(u0(x0))
    f1 = float(u0(x0 + h))
    f2 = float(u0(x0 + 2.0 * h))
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def solve_volterra_single_layer(problem):
    """March the coupled gradient equations forward on the uniform grid.

    Every kernel carries zero weight at s = tau, so the equations read
    omega = b + K_oo omega + K_ot theta and theta = c + K_to omega + K_tt theta
    with strictly lower-triangular K: one forward substitution.  The
    tables are built in blocks of rows (``_march_rows``), so the march
    costs O(M^2) kernel evaluations in a few batched calls per block, plus
    O(M n_xi) for the initial data.
    """
    M = problem.M
    t = np.linspace(0.0, problem.T, M + 1)
    s = _sample(problem, t)
    ym0, yp0 = s.xi[0], s.xi[-1]
    omega = np.empty(M + 1)
    theta = np.empty(M + 1)
    omega[0] = -_one_sided_gradient(problem.u0, ym0, +1.0, yp0 - ym0)
    theta[0] = _one_sided_gradient(problem.u0, yp0, -1.0, yp0 - ym0)
    k0 = 1
    while k0 <= M:
        # R rows hold about R (k0 + R) <= _BLOCK table entries
        k1 = min(M + 1, k0 + max(1, (math.isqrt(k0 * k0 + 4 * _BLOCK) - k0) // 2))
        d, K = _march_rows(s, k0, k1)
        for r, k in enumerate(range(k0, k1)):
            om, th = omega[:k], theta[:k]
            omega[k] = d[0, r] + K[0, 0, r, :k] @ om + K[0, 1, r, :k] @ th
            theta[k] = d[1, r] + K[1, 0, r, :k] @ om + K[1, 1, r, :k] @ th
        k0 = k1
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(theta))):
        raise NumericalError("gradient march produced non-finite values")
    return GradientPair(omega=omega, theta=theta, grid=t)


def check_refinement(problem, rel_tol=0.10):
    """Solve at M and 2M and flag non-convergent refinement.

    Returns the pair of gradient solutions; raises NumericalError when
    the terminal gradients move by more than rel_tol between the grids.
    """
    coarse = solve_volterra_single_layer(problem)
    fine_problem = GitLayerProblem(
        y_minus=problem.y_minus, y_plus=problem.y_plus,
        chi_minus=problem.chi_minus, chi_plus=problem.chi_plus,
        u0=problem.u0, T=problem.T, M=2 * problem.M, n_xi=problem.n_xi,
    )
    fine = solve_volterra_single_layer(fine_problem)
    scale = max(np.max(np.abs(fine.omega)), np.max(np.abs(fine.theta)), 1e-30)
    drift = max(abs(coarse.omega[-1] - fine.omega[-1]), abs(coarse.theta[-1] - fine.theta[-1]))
    if drift > rel_tol * scale:
        raise NumericalError(
            f"gradient march not converging under refinement: drift {drift:.3e} "
            f"exceeds {rel_tol:.0%} of scale {scale:.3e}"
        )
    return coarse, fine


def _gradient_residual(problem, gradients, refine=2):
    """Self-consistency residual of a solved gradient pair at tau = T.

    Evaluates the last row of the march's tables on a grid ``refine``
    times finer against the interpolated gradients, and returns the max
    mismatch.
    """
    ts = np.linspace(0.0, problem.T, refine * problem.M + 1)
    n = len(ts) - 1
    d, K = _march_rows(_sample(problem, ts), n, n + 1)
    om = np.interp(ts[:-1], gradients.grid, gradients.omega)
    th = np.interp(ts[:-1], gradients.grid, gradients.theta)
    rhs = d[:, 0] + K[:, 0, 0] @ om + K[:, 1, 0] @ th
    return max(abs(gradients.omega[-1] - rhs[0]), abs(gradients.theta[-1] - rhs[1]))


def git_field_single_layer(problem, gradients, x, tau):
    """Field value inside the strip at (x, tau) from solved gradients.

    Uses the image-sum boundary-potential representation; on the
    boundaries themselves the representation is taken by continuity,
    returning the boundary datum.
    """
    ym = _as_callable(problem.y_minus)
    yp = _as_callable(problem.y_plus)
    cm = _as_callable(problem.chi_minus)
    cp = _as_callable(problem.chi_plus)
    x = float(x)
    tau = float(tau)
    if tau < 0.0 or tau > problem.T + 1e-12 * max(problem.T, 1.0):
        raise ConfigError(f"time {tau} outside the horizon [0, {problem.T}]")
    ymt = float(_vec(ym, tau))
    ypt = float(_vec(yp, tau))
    l = ypt - ymt
    tol = 1e-12 * max(l, 1.0)
    if x < ymt - tol or x > ypt + tol:
        raise ConfigError(f"point x={x} outside the strip [{ymt}, {ypt}] at tau={tau}")
    if abs(x - ymt) <= tol:
        return float(_vec(cm, tau))
    if abs(x - ypt) <= tol:
        return float(_vec(cp, tau))
    if tau == 0.0:
        return float(problem.u0(x))

    grid = gradients.grid
    if tau > grid[-1] + 1e-12 * max(problem.T, 1.0):
        raise ConfigError("gradient grid does not cover the requested time")
    ts = np.append(grid[grid < tau * (1.0 - 1e-15)], tau)
    hist = ts[:-1]
    dh = tau - hist
    om = np.interp(hist, grid, gradients.omega)
    th = np.interp(hist, grid, gradients.theta)
    ym_h = _vec(ym, hist)
    yp_h = _vec(yp, hist)
    cm_h = _vec(cm, hist)
    cp_h = _vec(cp, hist)
    dym_h = _derivative(ym, hist, problem.T)
    dyp_h = _derivative(yp, hist, problem.T)

    def upsilon_sum(delta, xi_arr):
        return 0.5 * (folded_kernel(delta, x - xi_arr, l)
                      - folded_kernel(delta, x + xi_arr - 2.0 * ymt, l))

    def lambda_sum(delta, xi_arr):
        return -0.5 * (folded_kernel(delta, x - xi_arr, l, 1)
                       + folded_kernel(delta, x + xi_arr - 2.0 * ymt, l, 1))

    ym0 = float(_vec(ym, 0.0))
    yp0 = float(_vec(yp, 0.0))
    xi = np.linspace(ym0, yp0, problem.n_xi)
    u0v = _vec(problem.u0, xi)
    t0 = np.trapezoid(u0v * upsilon_sum(tau, xi), xi)

    # boundary-history integrals; every kernel vanishes at s = tau for
    # interior x, so the final trapezoid node carries a zero integrand.
    # Green's identity on the moving strip: the flux through y+ is
    # (theta + chi+ y+') G(y+) and through y- is (omega - chi- y-') G(y-)
    f1 = (th + cp_h * dyp_h) * upsilon_sum(dh, yp_h)
    f2 = (om - cm_h * dym_h) * upsilon_sum(dh, ym_h)
    f3 = cm_h * lambda_sum(dh, ym_h) - cp_h * lambda_sum(dh, yp_h)
    t1 = np.trapezoid(np.append(f1, 0.0), ts)
    t2 = np.trapezoid(np.append(f2, 0.0), ts)
    t3 = np.trapezoid(np.append(f3, 0.0), ts)
    return float(t0 + t1 + t2 + t3)
