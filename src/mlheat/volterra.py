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
from .special_functions import folded_kernel

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


def _weak_singular(chi_nodes, ts):
    """integral over [ts[0], tau] of (chi(s) - chi(tau)) / (2 sqrt(pi (tau-s)^3)) ds.

    chi is taken piecewise linear through (ts, chi_nodes) with
    tau = ts[-1]; each sub-interval is integrated in closed form, so the
    integrable endpoint singularity costs no accuracy.
    """
    tau = ts[-1]
    chi_tau = chi_nodes[-1]
    total = 0.0
    for ta, tb, ca, cb in zip(ts[:-1], ts[1:], chi_nodes[:-1], chi_nodes[1:]):
        h = tb - ta
        m = (cb - ca) / h
        ua = tau - ta
        ub = tau - tb
        if ub <= 0.0:
            # final interval: the linear part hits chi(tau) exactly at s = tau
            total += -2.0 * m * math.sqrt(ua)
        else:
            p = ca + m * ua - chi_tau
            total += -2.0 * p * (1.0 / math.sqrt(ua) - 1.0 / math.sqrt(ub))
            total += -2.0 * m * (math.sqrt(ua) - math.sqrt(ub))
    return total / (2.0 * _SQRT_PI)


def _stieltjes(eta_mid, eta_0, chi_nodes):
    """integral chi d(eta) by parts; eta vanishes at s = tau.

    = -chi(0) eta(0) - sum eta(mid_i) * (chi_{i+1} - chi_i).
    """
    return -chi_nodes[0] * eta_0 - float(np.dot(eta_mid, np.diff(chi_nodes)))


def _rhs_pair(ym, yp, cm, cp, xi, u0v, tau, ts, om, th):
    """Right-hand sides of the two gradient equations at time tau.

    ts is an increasing grid with ts[-1] = tau; om, th hold the gradient
    history at ts[:-1].  Every integrand carries zero weight at s = tau,
    so the pair is explicit in the unknowns at tau.
    """
    ymt = float(_vec(ym, tau))
    ypt = float(_vec(yp, tau))
    l = ypt - ymt
    if l <= 0.0:
        raise ConfigError("boundaries cross inside the horizon")
    hist = ts[:-1]
    dh = tau - hist
    mids = 0.5 * (ts[:-1] + ts[1:])
    dm = tau - mids
    ym_h = _vec(ym, hist)
    yp_h = _vec(yp, hist)
    ym_m = _vec(ym, mids)
    yp_m = _vec(yp, mids)
    cm_n = _vec(cm, ts)
    cp_n = _vec(cp, ts)

    # initial-data terms
    i0_m = np.trapezoid(u0v * folded_kernel(tau, ymt - xi, l, 1), xi)
    i0_p = np.trapezoid(u0v * folded_kernel(tau, ymt - xi + l, l, 1), xi)

    # boundary-datum singular terms and weakly singular differences
    b_m = -cm_n[-1] / math.sqrt(math.pi * tau)
    b_p = cp_n[-1] / math.sqrt(math.pi * tau)
    w_m = _weak_singular(cm_n, ts)
    w_p = _weak_singular(cp_n, ts)

    # Stieltjes terms against the eta kernels (the Kronecker spike is
    # active only when the evaluation point rides its own boundary)
    spike_m = 1.0 / np.sqrt(np.pi * dm)
    spike_0 = 1.0 / math.sqrt(math.pi * tau)
    em_self = -spike_m + folded_kernel(dm, ymt - ym_m, l)
    em_self0 = -spike_0 + folded_kernel(tau, ymt - ym_h[0], l)
    em_cross = folded_kernel(dm, ymt - yp_m, l)
    em_cross0 = folded_kernel(tau, ymt - yp_h[0], l)
    ep_atm = folded_kernel(dm, ymt - ym_m + l, l)
    ep_atm0 = folded_kernel(tau, ymt - ym_h[0] + l, l)
    ep_self = -spike_m + folded_kernel(dm, ymt - yp_m + l, l)
    ep_self0 = -spike_0 + folded_kernel(tau, ymt - yp_h[0] + l, l)
    s_m = _stieltjes(em_self, em_self0, cm_n) - _stieltjes(em_cross, em_cross0, cp_n)
    s_p = _stieltjes(ep_atm, ep_atm0, cm_n) - _stieltjes(ep_self, ep_self0, cp_n)

    # moving-boundary memory terms: kernel = smooth * (tau-s)^{-1/2},
    # integrated with exact sqrt weights and left-endpoint values
    wts = 2.0 * (np.sqrt(tau - ts[:-1]) - np.sqrt(tau - ts[1:]))
    gm = _self_peak(dh, ymt - ym_h)
    gp = _self_peak(dh, ypt - yp_h)
    m_m = float(np.dot(om, gm * np.sqrt(dh) * wts))
    m_p = float(np.dot(th, gp * np.sqrt(dh) * wts))

    # regular coupling terms; the kernels vanish at s = tau
    ups0_m = folded_kernel(dh, ymt - ym_h, l, 1) + _self_peak(dh, ymt - ym_h)
    ups0_p = folded_kernel(dh, ymt - yp_h + l, l, 1) + _self_peak(dh, ypt - yp_h)
    f_m = th * folded_kernel(dh, ymt - yp_h, l, 1) + om * ups0_m
    f_p = th * ups0_p + om * folded_kernel(dh, ymt - ym_h + l, l, 1)
    c_m = np.trapezoid(np.append(f_m, 0.0), ts)
    c_p = np.trapezoid(np.append(f_p, 0.0), ts)

    rhs_omega = -(i0_m + b_m + w_m + s_m - m_m + c_m)
    rhs_theta = i0_p + b_p - w_p + s_p - m_p + c_p
    return rhs_omega, rhs_theta


def _one_sided_gradient(u0, x0, direction, span):
    """Second-order one-sided du0/dx at x0, stepping into the strip."""
    h = direction * 1e-5 * span
    f0 = float(u0(x0))
    f1 = float(u0(x0 + h))
    f2 = float(u0(x0 + 2.0 * h))
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def solve_volterra_single_layer(problem):
    """March the coupled gradient equations forward on the uniform grid.

    Every integral term is explicit (all kernels carry zero weight at
    s = tau), so each step costs O(k) kernel evaluations and the whole
    march costs O(M^2).
    """
    ym = _as_callable(problem.y_minus)
    yp = _as_callable(problem.y_plus)
    cm = _as_callable(problem.chi_minus)
    cp = _as_callable(problem.chi_plus)
    M = problem.M
    t = np.linspace(0.0, problem.T, M + 1)
    ym0 = float(_vec(ym, 0.0))
    yp0 = float(_vec(yp, 0.0))
    if yp0 <= ym0:
        raise ConfigError("boundaries cross at t = 0")
    xi = np.linspace(ym0, yp0, problem.n_xi)
    u0v = _vec(problem.u0, xi)

    omega = np.empty(M + 1)
    theta = np.empty(M + 1)
    span = yp0 - ym0
    omega[0] = -_one_sided_gradient(problem.u0, ym0, +1.0, span)
    theta[0] = _one_sided_gradient(problem.u0, yp0, -1.0, span)
    for k in range(1, M + 1):
        omega[k], theta[k] = _rhs_pair(
            ym, yp, cm, cp, xi, u0v, t[k], t[: k + 1], omega[:k], theta[:k]
        )
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

    Re-evaluates the right-hand sides on a grid ``refine`` times finer,
    interpolating the stored gradients, and returns the max mismatch.
    """
    ym = _as_callable(problem.y_minus)
    yp = _as_callable(problem.y_plus)
    cm = _as_callable(problem.chi_minus)
    cp = _as_callable(problem.chi_plus)
    ym0 = float(_vec(ym, 0.0))
    yp0 = float(_vec(yp, 0.0))
    xi = np.linspace(ym0, yp0, problem.n_xi)
    u0v = _vec(problem.u0, xi)
    ts = np.linspace(0.0, problem.T, refine * problem.M + 1)
    om = np.interp(ts[:-1], gradients.grid, gradients.omega)
    th = np.interp(ts[:-1], gradients.grid, gradients.theta)
    rhs_om, rhs_th = _rhs_pair(ym, yp, cm, cp, xi, u0v, problem.T, ts, om, th)
    return max(abs(gradients.omega[-1] - rhs_om), abs(gradients.theta[-1] - rhs_th))


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
    # interior x, so the final trapezoid node carries a zero integrand
    f1 = (om + cp_h * dyp_h) * upsilon_sum(dh, yp_h)
    f2 = (th - cm_h * dym_h) * upsilon_sum(dh, ym_h)
    f3 = cm_h * lambda_sum(dh, ym_h) - cp_h * lambda_sum(dh, yp_h)
    t1 = np.trapezoid(np.append(f1, 0.0), ts)
    t2 = np.trapezoid(np.append(f2, 0.0), ts)
    t3 = np.trapezoid(np.append(f3, 0.0), ts)
    return float(t0 + t1 + t2 + t3)
