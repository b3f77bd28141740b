"""Green's function of the heat equation with piecewise-constant diffusion.

The strip [y_0, y_N] is split into N layers with constant diffusion sigma_i
on (y_{i-1}, y_i].  In Laplace space the unknown internal-boundary values
g_i(lambda) solve a symmetric, strictly diagonally dominant tridiagonal
system; the field inside each layer is a sinh interpolation of the two
bounding values plus a particular term in the source layer.  Time-domain
values come from Gaver-Stehfest inversion (one tridiagonal solve per node).

All the hyperbolic ratios are computed in exponentially scaled form so that
arguments up to ~1e4 neither overflow nor lose precision.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv as _dgtsv

from .errors import NumericalError
from .laplace import StehfestScheme, stehfest_weights


@dataclass(frozen=True)
class LayeredMedium:
    """Ordered layer boundaries y_0 < ... < y_N and per-layer sigmas."""

    boundaries: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.boundaries, dtype=float))
        s = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if b.ndim != 1 or s.ndim != 1:
            raise ValueError("boundaries and sigmas must be 1-D")
        if len(s) != len(b) - 1:
            raise ValueError(
                f"need one sigma per layer: {len(b)} boundaries require "
                f"{len(b) - 1} sigmas, got {len(s)}"
            )
        if not np.all(np.isfinite(b)) or not np.all(np.diff(b) > 0.0):
            raise ValueError("boundaries must be finite and strictly increasing")
        if not np.all(np.isfinite(s)) or not np.all(s > 0.0):
            raise ValueError("all sigmas must be positive and finite")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "_widths", np.diff(b))
        object.__setattr__(self, "_omegas", np.diff(b) / s)

    @classmethod
    def uniform(cls, y0, yN, sigmas):
        """Split [y0, yN] into len(sigmas) equal layers."""
        sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        return cls(np.linspace(y0, yN, len(sigmas) + 1), sigmas)

    @property
    def n_layers(self):
        return len(self.sigmas)

    @property
    def widths(self):
        return self._widths


def locate_source_layer(medium, x0):
    """1-based index j of the layer with y_{j-1} < x0 <= y_j.

    A source sitting exactly on an internal boundary has no well-defined
    source layer and is rejected.
    """
    b = medium.boundaries
    if not (b[0] < x0 < b[-1]):
        raise ValueError(f"source x0={x0} outside the open strip ({b[0]}, {b[-1]})")
    j = int(np.searchsorted(b, x0, side="left"))
    if x0 == b[j]:
        raise ValueError(f"source x0={x0} lies on internal boundary y_{j}")
    return j


@dataclass(frozen=True)
class GreensProblem:
    """A layered medium, a Dirac source location, and a time horizon."""

    medium: LayeredMedium
    x0: float
    T: float

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        object.__setattr__(self, "_j", locate_source_layer(self.medium, self.x0))

    @property
    def source_layer(self):
        return self._j


@dataclass(frozen=True)
class TridiagonalSystem:
    """Symmetric tridiagonal system M g = rhs at a fixed Laplace variable.

    ``offdiag`` stores the signed off-diagonal entries of M (they are
    negative: M = tridiag(-beta, D, -beta)).
    """

    diag: np.ndarray
    offdiag: np.ndarray
    rhs: np.ndarray
    lam: float


@dataclass
class SolutionField:
    """Solution values, boundary values and flux diagnostics at one time."""

    time: float
    xs: np.ndarray
    values: np.ndarray
    boundary_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    flux_jumps: np.ndarray = field(default_factory=lambda: np.empty(0))


# -- exponentially scaled hyperbolic ratios (all arguments > 0) --------------


def _coth(a):
    e = np.exp(-2.0 * a)
    return (1.0 + e) / (1.0 - e)


def _csch(a):
    return 2.0 * np.exp(-a) / (1.0 - np.exp(-2.0 * a))


def _sinh_ratio(p, a):
    # sinh(p)/sinh(a) for 0 <= p <= a, scaled to avoid overflow
    return np.exp(p - a) * (-np.expm1(-2.0 * p)) / (-np.expm1(-2.0 * a))


# beyond this argument plain sinh/cosh approach overflow and the scaled
# forms take over
_DIRECT_HYP_MAX = 300.0


def _assemble_batch(problem, lams):
    """Diagonals, off-diagonals and right-hand sides for many lambda at once.

    Returns arrays of shape (m, N-1), (m, N-2), (m, N-1).
    """
    med = problem.medium
    N = med.n_layers
    if N < 2:
        raise ValueError("assembly needs at least one internal boundary (N >= 2)")
    lams = np.asarray(lams, dtype=float)
    if lams.min() <= 0.0 or not np.isfinite(lams.max()):
        raise ValueError("Laplace variable must be positive and finite")
    sq = np.sqrt(lams)[:, None]  # (m, 1)
    a = sq * med._omegas[None, :]  # (m, N)
    amax = a.max()
    if not np.isfinite(amax):
        raise NumericalError("overflow guard failure in hyperbolic arguments")
    sig = med.sigmas[None, :]
    if amax < _DIRECT_HYP_MAX:
        coth = 1.0 / np.tanh(a)
        offdiag = -sig[:, 1:-1] / np.sinh(a[:, 1:-1])
    else:
        coth = _coth(a)
        offdiag = -sig[:, 1:-1] * _csch(a[:, 1:-1])
    diag = sig[:, :-1] * coth[:, :-1] + sig[:, 1:] * coth[:, 1:]

    j = problem.source_layer  # 1-based
    yj = med.boundaries[j]
    yjm1 = med.boundaries[j - 1]
    lj = yj - yjm1
    gamma1 = (yj - problem.x0) / lj
    gamma2 = (problem.x0 - yjm1) / lj
    aj = a[:, j - 1]
    rhs = np.zeros(diag.shape)
    inv_sq = 1.0 / sq[:, 0]
    if j - 1 >= 1:  # unknown index j-1 exists
        rhs[:, j - 2] += inv_sq * _sinh_ratio(gamma1 * aj, aj)
    if j <= N - 1:
        rhs[:, j - 1] += inv_sq * _sinh_ratio(gamma2 * aj, aj)
    return diag, offdiag, rhs


def assemble_system(problem, lam):
    """Assemble the Laplace-domain tridiagonal system at a single lambda."""
    diag, offdiag, rhs = _assemble_batch(problem, [lam])
    return TridiagonalSystem(diag=diag[0], offdiag=offdiag[0], rhs=rhs[0], lam=float(lam))


def solve_tridiagonal(sys):
    """Solve M g = rhs by Thomas elimination (no pivoting needed)."""
    d = np.asarray(sys.diag, dtype=float)
    e = np.asarray(sys.offdiag, dtype=float)
    r = np.asarray(sys.rhs, dtype=float)
    n = len(d)
    if len(e) != max(n - 1, 0) or len(r) != n:
        raise ValueError("inconsistent system dimensions")
    pad = np.concatenate(([0.0], np.abs(e), [0.0]))
    if np.any(d - pad[:-1] - pad[1:] <= 0.0):
        raise NumericalError("tridiagonal system is not diagonally dominant")
    c = np.empty(n)
    g = np.empty(n)
    c[0] = d[0]
    g[0] = r[0]
    for i in range(1, n):
        w = e[i - 1] / c[i - 1]
        c[i] = d[i] - w * e[i - 1]
        g[i] = r[i] - w * g[i - 1]
    g[-1] /= c[-1]
    for i in range(n - 2, -1, -1):
        g[i] = (g[i] - e[i] * g[i + 1]) / c[i]
    return g


def _solve_batch(diag, offdiag, rhs):
    """Solve the m independent tridiagonal systems in one LAPACK call.

    The systems are laid out block-diagonally in a single tridiagonal
    matrix (zero couplings at the block joints), so a lone ``dgtsv``
    factorization covers every Stehfest node.
    """
    m, n = diag.shape
    if n == 1:
        return rhs / diag
    off = np.zeros((m, n))
    off[:, :-1] = offdiag
    du = off.ravel()[:-1]
    # the dl/du scratch buffers are freshly built, but diag and rhs belong
    # to the caller and must survive the call
    _, _, _, sol, info = _dgtsv(
        du.copy(),
        diag.ravel(),
        du,
        rhs.ravel(),
        overwrite_dl=True,
        overwrite_d=False,
        overwrite_du=True,
        overwrite_b=False,
    )
    if info != 0:
        raise NumericalError(f"tridiagonal factorization failed (info={info})")
    return sol.reshape(m, n)


def _field_batch(problem, lams, g, xs):
    """Laplace-domain field values, shape (m, len(xs))."""
    med = problem.medium
    b = med.boundaries
    N = med.n_layers
    xs = np.asarray(xs, dtype=float)
    if xs.min() < b[0] or xs.max() > b[-1]:
        raise ValueError("evaluation point outside the strip")
    lams = np.asarray(lams, dtype=float)
    m = len(lams)
    sq = np.sqrt(lams)[:, None]

    # pad with the zero Dirichlet values g_0 = g_N = 0
    G = np.zeros((m, N + 1))
    if g is not None and g.size:
        G[:, 1:N] = g

    idx = np.clip(np.searchsorted(b, xs, side="left"), 1, N)  # layer per x
    lo = b[idx - 1]
    hi = b[idx]
    wid = hi - lo
    sig = med.sigmas[idx - 1]
    af = sq * (wid / sig)[None, :]  # (m, nx)
    gam_lo = (xs - lo) / wid
    gam_hi = (hi - xs) / wid
    direct = af.max() < _DIRECT_HYP_MAX
    if direct:
        inv_sinh = 1.0 / np.sinh(af)
        vals = (
            G[:, idx - 1] * np.sinh(gam_hi * af) + G[:, idx] * np.sinh(gam_lo * af)
        ) * inv_sinh
    else:
        vals = G[:, idx - 1] * _sinh_ratio(gam_hi * af, af) + G[:, idx] * _sinh_ratio(
            gam_lo * af, af
        )

    j = problem.source_layer
    in_src = idx == j
    if in_src.any():
        a = b[j - 1]
        c = b[j]
        sj = med.sigmas[j - 1]
        xsrc = xs[in_src]
        x_lo = np.minimum(xsrc, problem.x0)
        x_hi = np.maximum(xsrc, problem.x0)
        p = sq * ((x_lo - a) / sj)[None, :]
        q = sq * ((c - x_hi) / sj)[None, :]
        aj = sq * ((c - a) / sj)
        if direct:
            H = np.sinh(p) * np.sinh(q) / np.sinh(aj)
        else:
            # sinh(p) sinh(q) / sinh(aj), scaled (p + q <= aj)
            H = (
                0.5
                * np.exp(p + q - aj)
                * np.expm1(-2.0 * p)
                * np.expm1(-2.0 * q)
                / (-np.expm1(-2.0 * aj))
            )
        vals[:, in_src] += H / (sj * sq)
    return vals


def laplace_field(problem, lam, g_hat, x):
    """Laplace-domain field at a single (lambda, x).

    ``g_hat`` is the internal-boundary vector at this lambda (the outer
    Dirichlet values are implied zeros).
    """
    g = np.atleast_2d(np.asarray(g_hat, dtype=float)) if np.size(g_hat) else None
    out = _field_batch(problem, [lam], g, np.atleast_1d(float(x)))
    return float(out[0, 0])


def _flux_residual(diag, offdiag, rhs, g, lams):
    """Flux-jump residual sqrt(lam)*(M g - rhs), shape (m, N-1)."""
    res = diag * g - rhs
    if g.shape[1] > 1:
        res[:, 1:] += offdiag * g[:, :-1]
        res[:, :-1] += offdiag * g[:, 1:]
    return np.sqrt(np.asarray(lams, dtype=float))[:, None] * res


def _green_fast(problem, scheme, xs, lam0):
    """Fused assembly/solve/field/flux pass for moderate sinh arguments.

    Identical mathematics to the modular routines, with shared
    intermediates and plain (unscaled) hyperbolics; returns None when any
    argument is large enough to need the scaled forms.
    """
    med = problem.medium
    b = med.boundaries
    N = med.n_layers
    m = scheme.m
    sq = math.sqrt(lam0) * scheme._sqrt_ks[:, None]
    a = sq * med._omegas[None, :]
    if a.max() >= _DIRECT_HYP_MAX:
        return None
    sig = med.sigmas[None, :]
    sinh_a = np.sinh(a)
    coth = np.cosh(a) / sinh_a
    diag = sig[:, :-1] * coth[:, :-1] + sig[:, 1:] * coth[:, 1:]
    off = -sig[:, 1:-1] / sinh_a[:, 1:-1]

    j = problem.source_layer
    yj, yjm1 = b[j], b[j - 1]
    aj = a[:, j - 1]
    saj = sinh_a[:, j - 1]
    gamma1 = (yj - problem.x0) / (yj - yjm1)
    gamma2 = (problem.x0 - yjm1) / (yj - yjm1)
    scale = 1.0 / (sq[:, 0] * saj)
    src = np.sinh(np.concatenate([gamma1 * aj, gamma2 * aj]))
    rhs = np.zeros(diag.shape)
    if j >= 2:
        rhs[:, j - 2] = scale * src[:m]
    if j <= N - 1:
        rhs[:, j - 1] = scale * src[m:]

    g = _solve_batch(diag, off, rhs)

    res = diag * g - rhs
    if N > 2:
        res[:, 1:] += off * g[:, :-1]
        res[:, :-1] += off * g[:, 1:]

    if len(xs) == N + 1 and np.array_equal(xs, b):
        # the sinh interpolation is exact at layer ends (and the source
        # term vanishes there), so the field at the boundary nodes is the
        # boundary-value vector itself with the Dirichlet zeros appended
        res *= sq
        wl = lam0 * scheme.weights
        out = wl @ np.concatenate([g, res], axis=1)
        fv = out[: N - 1]
        vals = np.zeros(N + 1)
        vals[1:N] = fv
        return vals, fv, out[N - 1 :]

    idx = np.clip(np.searchsorted(b, xs, side="left"), 1, N)
    lo = b[idx - 1]
    hi = b[idx]
    sgx = med.sigmas[idx - 1]
    nx = len(xs)
    args = np.empty((3 * m, nx))
    np.multiply(sq, ((xs - lo) / sgx)[None, :], out=args[:m])
    np.multiply(sq, ((hi - xs) / sgx)[None, :], out=args[m : 2 * m])
    np.add(args[:m], args[m : 2 * m], out=args[2 * m :])
    big = np.sinh(args)
    G = np.zeros((m, N + 1))
    G[:, 1:N] = g
    vals = (G[:, idx] * big[:m] + G[:, idx - 1] * big[m : 2 * m]) / big[2 * m :]
    in_src = idx == j
    if in_src.any():
        sj = med.sigmas[j - 1]
        xsrc = xs[in_src]
        k = len(xsrc)
        pq = np.sinh(
            sq
            * np.concatenate(
                [
                    (np.minimum(xsrc, problem.x0) - yjm1) / sj,
                    (yj - np.maximum(xsrc, problem.x0)) / sj,
                ]
            )[None, :]
        )
        # scale = 1/(sq*saj) from the rhs assembly is reused here
        vals[:, in_src] += pq[:, :k] * pq[:, k:] * (scale / sj)[:, None]

    res *= sq
    wl = lam0 * scheme.weights
    out = wl @ np.concatenate([vals, g, res], axis=1)
    nx = len(xs)
    return out[:nx], out[nx : nx + N - 1], out[nx + N - 1 :]


def boundary_values(problem, scheme=None):
    """Time-domain internal-boundary values f_i(T), i = 1..N-1."""
    if scheme is None:
        scheme = stehfest_weights()
    if problem.medium.n_layers < 2:
        return np.empty(0)
    lam0 = math.log(2.0) / problem.T
    lams = lam0 * np.arange(1, scheme.m + 1)
    diag, offdiag, rhs = _assemble_batch(problem, lams)
    g = _solve_batch(diag, offdiag, rhs)
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite Laplace-domain boundary values")
    return lam0 * (scheme.weights @ g)


def greens_function(problem, scheme=None, xs=None):
    """Time-domain Green's function on the abscissas ``xs``.

    One batched tridiagonal solve covers all Stehfest nodes; the field,
    boundary values and flux-jump diagnostics are inverted together.
    """
    if scheme is None:
        scheme = stehfest_weights()
    if xs is None:
        xs = np.linspace(problem.medium.boundaries[0], problem.medium.boundaries[-1], 101)
    xs = np.asarray(xs, dtype=float)
    b = problem.medium.boundaries
    if xs.min() < b[0] or xs.max() > b[-1]:
        raise ValueError("evaluation point outside the strip")
    lam0 = math.log(2.0) / problem.T
    N = problem.medium.n_layers
    fast = _green_fast(problem, scheme, xs, lam0) if N >= 2 else None
    if fast is not None:
        vals, fvals, jumps = fast
    elif N >= 2:
        lams = lam0 * np.arange(1, scheme.m + 1)
        diag, offdiag, rhs = _assemble_batch(problem, lams)
        g = _solve_batch(diag, offdiag, rhs)
        fvals = lam0 * (scheme.weights @ g)
        jumps = lam0 * (scheme.weights @ _flux_residual(diag, offdiag, rhs, g, lams))
        vals = lam0 * (scheme.weights @ _field_batch(problem, lams, g, xs))
    else:
        lams = lam0 * np.arange(1, scheme.m + 1)
        fvals = np.empty(0)
        jumps = np.empty(0)
        vals = lam0 * (scheme.weights @ _field_batch(problem, lams, None, xs))
    # a single non-finite entry poisons these sums
    if not math.isfinite(float(vals.sum()) + float(fvals.sum()) + float(jumps.sum())):
        raise NumericalError("non-finite values after Laplace inversion")
    return SolutionField(
        time=problem.T,
        xs=xs,
        values=vals,
        boundary_values=fvals,
        flux_jumps=jumps,
    )
