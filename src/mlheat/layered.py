"""Green's function of the heat equation with piecewise-constant diffusion.

The strip [y_0, y_N] is split into N layers with constant diffusion sigma_i
on (y_{i-1}, y_i].  In Laplace space the field in a layer is a sinh
interpolation of its two end values.  The source x0 splits its layer in
two, so the values at the internal boundaries and at x0 solve one
symmetric tridiagonal M-matrix system: flux continuity at each boundary
and a unit flux jump at x0.  Time-domain values come from Gaver-Stehfest
inversion; one solve covers all Stehfest nodes.

There is one path, in one numerical form.  The system is held in
excess/coupling form (Grassmann-Taksar-Heyman): a segment with
a = sqrt(lambda) width / sigma couples its end nodes by sigma csch(a) and
adds sigma tanh(a/2) to the excess of each.  Both are finite for every a,
so there is no overflow switch.  The diagonal sigma_i coth a_i +
sigma_{i+1} coth a_{i+1}, a sum of large numbers whose small excess
Gaussian elimination would recover by subtraction, is never formed.
Instead a vectorized odd-even (cyclic) reduction combines only
non-negative terms, so the Laplace-domain values keep their relative
accuracy however thin the layers, and the accuracy after inversion stays
flat as N grows (3.4e-5 of the peak on the uniform strip from N = 20 to
N = 20000).

The (N, m) arrays of a solve (m Laplace nodes) live in one scratch
workspace per thread: a flat float64 buffer handed out as views in LIFO
order.  Each public entry releases what it took when it returns or
raises, and every array it returns is a fresh one, never a view of the
workspace.  The buffer grows only between calls, to a call's high-water
mark plus 1/8, and never shrinks, so a thread keeps about the scratch of
its largest solve (23 MB at N = 20000 with m = 16); later solves of that
size reuse those pages instead of faulting fresh ones in.
"""

import functools
import math
import sys as _sys  # solve_tridiagonal's argument is named sys
import threading
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_attributes
from .errors import ConfigError, NumericalError
from .laplace import stehfest_weights

# LAPACK's dgtsv serves only the solve_tridiagonal oracle, so scipy is
# imported at its first call, not with the package
__getattr__ = lazy_attributes(__name__, _dgtsv="scipy.linalg.lapack:dgtsv")


@dataclass(frozen=True)
class LayeredMedium:
    """Ordered layer boundaries y_0 < ... < y_N and per-layer sigmas."""

    boundaries: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.boundaries, dtype=float))
        s = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if b.ndim != 1 or s.ndim != 1:
            raise ConfigError("boundaries and sigmas must be 1-D")
        if len(b) < 2:
            raise ConfigError(f"a medium needs at least one layer, got {max(len(b) - 1, 0)}")
        if len(s) != len(b) - 1:
            raise ConfigError(
                f"need one sigma per layer: {len(b)} boundaries require "
                f"{len(b) - 1} sigmas, got {len(s)}"
            )
        if not np.all(np.isfinite(b)) or not np.all(np.diff(b) > 0.0):
            raise ConfigError("boundaries must be finite and strictly increasing")
        if not np.all(np.isfinite(s)) or not np.all(s > 0.0):
            raise ConfigError("all sigmas must be positive and finite")
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
        raise ConfigError(f"source x0={x0} outside the open strip ({b[0]}, {b[-1]})")
    j = int(np.searchsorted(b, x0, side="left"))
    if x0 == b[j]:
        raise ConfigError(f"source x0={x0} lies on internal boundary y_{j}")
    return j


@dataclass(frozen=True)
class GreensProblem:
    """A layered medium, a Dirac source location, and a time horizon."""

    medium: LayeredMedium
    x0: float
    T: float

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ConfigError(f"horizon T must be positive, got {self.T}")
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
    """Solution values, boundary values and flux diagnostics at one time.

    flux_jumps is not an error estimate: each flux is a coupling ~sigma/a
    times a difference of node values, so its rounding floor grows with N.
    On [-1, 1] with sigma 0.5, x0 0.05 and T 1 it reads 1.2e-6 / 1.9e-5 /
    2.8e-4 / 2.6e-3 of the peak at N = 20 / 200 / 2000 / 20000, while the
    true error is 3.4e-5 at each.
    """

    time: float
    xs: np.ndarray
    values: np.ndarray
    boundary_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    flux_jumps: np.ndarray = field(default_factory=lambda: np.empty(0))


# -- scratch workspace -------------------------------------------------------


class _Workspace:
    """Scratch for one thread: a flat float64 buffer handed out in LIFO order.

    ``take`` bumps the top and returns a view of the buffer; resetting
    ``top`` to an earlier value releases everything taken since.  A take
    that does not fit gets a fresh array, but the top still counts it, so
    once the outermost frame is released the buffer grows to the call's
    high-water mark plus 1/8.  The new buffer is not written then: its
    pages come in with the next call, after the fresh arrays of this one
    have gone back to the allocator.
    """

    def __init__(self):
        self.buf = np.empty(0)
        self.size = 0
        self.top = 0  # elements in use
        self.peak = 0  # largest top that did not fit

    def take(self, rows, m):
        lo = self.top
        hi = self.top = lo + rows * m
        if hi <= self.size:
            return self.buf[lo:hi].reshape(rows, m)
        if hi > self.peak:
            self.peak = hi
        return np.empty((rows, m))

    def release(self, mark):
        self.top = mark
        if mark == 0 and self.peak > self.size:
            self.buf = None  # drop the old buffer before taking the new one
            self.size = self.peak + self.peak // 8
            self.buf = np.empty(self.size)


class _PerThread(threading.local):
    """One workspace per thread, made on the thread's first solve."""

    def __init__(self):
        self.ws = _Workspace()


_local = _PerThread()


def _scratch(fn):
    """Make ``fn`` a workspace frame: what it takes is released when it
    returns or raises, so it must return nothing that views the buffer."""

    @functools.wraps(fn)
    def frame(*args, **kwargs):
        ws = _local.ws
        mark = ws.top
        try:
            return fn(*args, **kwargs)
        finally:
            ws.release(mark)

    return frame


# -- the node system in excess/coupling form --------------------------------


def _sinh_ratios(p, q):
    """sinh(p)/sinh(p+q) and sinh(q)/sinh(p+q) for p, q >= 0, p + q > 0.

    Every factor is scaled by exp(-p-q) and has one sign, so no argument
    overflows and nothing cancels.  p and q are (rows, m) arrays, and
    both are overwritten; the ratios are workspace arrays.
    """
    rows, m = p.shape
    block = _local.ws.take(3 * rows, m)
    tp, tq, den = block[:rows], block[rows : 2 * rows], block[2 * rows :]
    np.expm1(np.multiply(-2.0, p, tp), tp)  # -2 exp(-p) sinh(p)
    np.expm1(np.multiply(-2.0, q, tq), tq)
    np.add(tp, 1.0, den)
    np.multiply(den, tq, den)
    np.add(tp, den, den)  # -2 exp(-p-q) sinh(p+q)
    np.multiply(np.exp(np.negative(q, q), q), tp, tp)
    np.multiply(np.exp(np.negative(p, p), p), tq, tq)
    return np.divide(tp, den, tp), np.divide(tq, den, tq)


def _sqrt_lam(lam):
    if not (np.isfinite(lam) and lam > 0.0):
        raise ConfigError("Laplace variable must be positive and finite")
    return np.array([math.sqrt(lam)])


def _excess_couplings(sigmas, omegas, sq):
    """Excess and couplings of the nodes joining a chain of segments.

    A segment with omega = width / sigma and a = sq omega couples its two
    end nodes by beta = sigma csch(a) and adds tau = sigma tanh(a/2) to
    the excess of each, so a node's diagonal sigma coth(a) + ... is its
    excess plus its couplings.  The walls hold zero, so a wall segment's
    coupling adds to the excess of its node.  Both terms are finite and
    accurate for every a.  Returns an (n, m) excess and (n+1, m)
    couplings whose row i couples nodes i-1 and i (the end rows are
    zero); n = len(sigmas) - 1 and m = len(sq).  Both are workspace
    arrays.
    """
    n1, m = len(sigmas), len(sq)
    ws = _local.ws
    out = ws.take(2 * n1 - 1, m)
    excess, beta = out[: n1 - 1], out[n1 - 1 :]
    mark = ws.top
    tmp = ws.take(3 * n1, m)
    na, u, tau = tmp[:n1], tmp[n1 : 2 * n1], tmp[2 * n1 :]
    np.multiply(omegas[:, None], -sq, na)
    e = np.exp(na, beta)  # beta holds e until the last use of e below
    np.expm1(na, u)  # exp(-a) - 1
    d = np.add(e, 1.0, na)  # na is no longer needed
    np.multiply((-sigmas)[:, None], u, tau)
    tau /= d
    u *= d
    np.multiply((-2.0 * sigmas)[:, None], e, beta)
    beta /= u
    np.add(tau[:-1], tau[1:], excess)
    ws.top = mark
    excess[0] += beta[0]
    excess[-1] += beta[-1]
    beta[0] = beta[-1] = 0.0
    return excess, beta


def _reduce(excess, coupling, p, r):
    """Solve a batch of excess/coupling systems with rhs r at node p.

    Odd-even (cyclic) reduction that keeps node p: it eliminates the
    nodes of the other parity, which leaves a system of the same form on
    the kept ones, with c = s + couplings,

        s'_k = s_k + b_{k-1,k} s_{k-1} / c_{k-1} + b_{k,k+1} s_{k+1} / c_{k+1},
        b'_{k,k+2} = b_{k,k+1} b_{k+1,k+2} / c_{k+1},

    until p alone is left; the eliminated nodes, whose rhs is zero, then
    follow from their kept neighbours.  Every step adds, multiplies or
    divides non-negative numbers, so nothing cancels however thin the
    layers.  Shapes: excess (n, m), couplings (n+1, m) as returned by
    ``_excess_couplings``, r (m,); returns the solution with the zero
    wall values at both ends, shape (n+2, m), as the workspace array on
    top when it returns.
    """
    n, m = excess.shape
    ws = _local.ws
    out = ws.take(n + 2, m)
    mark = ws.top
    levels = []
    while n > 1:
        # kept node u is node q + 2u; eliminated node t is node 1 - q + 2t,
        # between kept nodes t - q and t + 1 - q (a wall where out of range)
        q = p % 2
        kept_in = excess[q::2]
        gone = excess[1 - q :: 2]
        left = coupling[1 - q : n : 2]  # couplings of the eliminated nodes
        right = coupling[2 - q :: 2]
        ne = len(gone)
        nk = n - ne
        # one block per level: to_left and to_right, the kept system and
        # its solution
        block = ws.take(2 * n + nk + 3, m)
        to_left, to_right = block[:ne], block[ne : 2 * ne]
        joined = block[2 * ne : 2 * ne + nk + 1]
        kept = block[2 * ne + nk + 1 : 2 * n + 1]
        below = block[2 * n + 1 :]
        tmp = out[:ne]  # out is written on the way back up
        np.add(gone, left, tmp)
        tmp += right
        np.divide(left, tmp, to_left)
        np.divide(right, tmp, to_right)
        # rows 0 and nk join a kept node to a wall unless the product fills them
        joined[::nk] = 0.0
        np.multiply(left, to_right, joined[1 - q : 1 - q + ne])
        kept[0] = kept_in[0]  # for q = 0: no eliminated node on its left
        np.add(kept_in[1 - q :], np.multiply(gone, to_right, tmp)[: nk - 1 + q], kept[1 - q :])
        kept[: ne - q] += np.multiply(gone, to_left, tmp)[q:]
        levels.append((out, to_left, to_right, q, ne, nk))
        excess, coupling, p, n, out = kept, joined, p // 2, nk, below
    out[::2] = 0.0
    np.divide(r, excess[0], out[1])
    for up, to_left, to_right, q, ne, nk in reversed(levels):
        up[:: len(up) - 1] = 0.0
        up[1 + q : 1 + q + 2 * nk : 2] = out[1:-1]
        x = up[2 - q : 2 - q + 2 * ne : 2]
        np.multiply(to_left, out[1 - q : 1 - q + ne], x)
        x += np.multiply(to_right, out[2 - q : 2 - q + ne], to_right)
        out = up
    ws.top = mark
    return out


def _system(problem, sq):
    """The node system at sqrt(lambda) = sq, shape (m,).

    The nodes are the internal boundaries and the source x0, which splits
    its layer in two; its flux jump makes the rhs 1/sq at the source and
    zero elsewhere.  The field in every segment between two nodes (or a
    node and a wall) is then a sinh interpolation of the values at its
    ends.  Returns the N+2 node positions with the walls, the N+1
    segment sigmas, and the excess and couplings of the N nodes; the
    source is node j-1.
    """
    med = problem.medium
    j = problem.source_layer
    b = med.boundaries
    nodes = np.concatenate((b[:j], [problem.x0], b[j:]))
    sigmas = np.concatenate((med.sigmas[:j], med.sigmas[j - 1 :]))
    excess, coupling = _excess_couplings(sigmas, (nodes[1:] - nodes[:-1]) / sigmas, sq)
    return nodes, sigmas, excess, coupling


def _field(nodes, sigmas, sq, g, xs):
    """Laplace-domain field at ``xs`` from the node values g, shape
    (len(xs), m), as a workspace array."""
    if not ((xs >= nodes[0]) & (xs <= nodes[-1])).all():
        raise ConfigError("evaluation point outside the strip")
    hi = np.maximum(nodes.searchsorted(xs), 1)  # y_0 itself is in the first segment
    lo = hi - 1
    sig = sigmas[lo]
    nx = len(xs)
    block = _local.ws.take(2 * nx, len(sq))
    a, b = block[:nx], block[nx:]
    np.multiply(((xs - nodes[lo]) / sig)[:, None], sq, a)
    np.multiply(((nodes[hi] - xs) / sig)[:, None], sq, b)
    to_hi, to_lo = _sinh_ratios(a, b)
    np.multiply(g.take(lo, 0, a, "clip"), to_lo, a)
    np.multiply(g.take(hi, 0, b, "clip"), to_hi, b)
    return np.add(a, b, a)


@_scratch
def assemble_system(problem, lam):
    """Assemble the Laplace-domain tridiagonal system at a single lambda.

    The unknowns are the internal-boundary values,
    M = tridiag(-couplings, excess + couplings, -couplings), and the
    source layer's sinh ratios form the right-hand side.
    """
    med = problem.medium
    if med.n_layers < 2:
        raise ConfigError("assembly needs at least one internal boundary (N >= 2)")
    sq = _sqrt_lam(lam)
    excess, coupling = _excess_couplings(med.sigmas, med._omegas, sq)
    b = med.boundaries
    j = problem.source_layer
    scale = sq[0] / med.sigmas[j - 1]
    to_hi, to_lo = _sinh_ratios(np.array([[scale * (problem.x0 - b[j - 1])]]),
                                np.array([[scale * (b[j] - problem.x0)]]))
    rhs = np.zeros(med.n_layers + 1)  # one entry per boundary, walls included
    rhs[j - 1] = to_lo[0, 0] / sq[0]
    rhs[j] = to_hi[0, 0] / sq[0]
    return TridiagonalSystem(
        diag=excess[:, 0] + coupling[:-1, 0] + coupling[1:, 0],
        offdiag=-coupling[1:-1, 0],
        rhs=rhs[1:-1],
        lam=float(lam),
    )


def solve_tridiagonal(sys):
    """Solve M g = rhs with LAPACK ``dgtsv`` after a dominance check."""
    d = np.asarray(sys.diag, dtype=float)
    e = np.asarray(sys.offdiag, dtype=float)
    r = np.asarray(sys.rhs, dtype=float)
    n = len(d)
    if len(e) != max(n - 1, 0) or len(r) != n:
        raise ConfigError("inconsistent system dimensions")
    pad = np.concatenate(([0.0], np.abs(e), [0.0]))
    if np.any(d - pad[:-1] - pad[1:] <= 0.0):
        raise NumericalError("tridiagonal system is not diagonally dominant")
    # the LAPACK wrapper wants one (unused) off-diagonal entry at n = 1
    off = e if n > 1 else np.zeros(1)
    _, _, _, g, info = _sys.modules[__name__]._dgtsv(off, d, off, r)
    if info != 0:
        raise NumericalError(f"tridiagonal factorization failed (info={info})")
    return g


@_scratch
def laplace_field(problem, lam, g_hat, x):
    """Laplace-domain field at a single (lambda, x).

    ``g_hat`` is the internal-boundary vector at this lambda (the outer
    Dirichlet values are implied zeros); the value at the source follows
    from its flux balance.
    """
    sq = _sqrt_lam(lam)
    nodes, sigmas, excess, coupling = _system(problem, sq)
    j = problem.source_layer
    gh = np.asarray(g_hat, dtype=float).ravel()
    g = np.concatenate(([0.0], gh[: j - 1], [0.0], gh[j - 1 :], [0.0]))
    left, right = coupling[j - 1, 0], coupling[j, 0]
    g[j] = (1.0 / sq[0] + left * g[j - 1] + right * g[j + 1]) / (excess[j - 1, 0] + left + right)
    return float(_field(nodes, sigmas, sq, g[:, None], np.atleast_1d(float(x)))[0, 0])


def _flux_residual(excess, coupling, sq, g, j):
    """Flux balance M g of the nodes, from g with its walls, shape (n, m).

    Off the source (node j-1, whose row is not a flux jump) the rhs is
    zero, so this is the flux jump over sqrt(lambda).  The two segments
    at the source take the flux through the source layer as a whole (the
    rows of ``assemble_system``): with x0 close to a boundary their own
    coupling is large and the difference it multiplies is rounding.
    The result is a workspace array.
    """
    n, m = excess.shape
    block = _local.ws.take(2 * n + 1, m)
    flux, res = block[: n + 1], block[n + 1 :]
    np.multiply(coupling, np.subtract(g[:-1], g[1:], flux), flux)
    left, right, s = coupling[j - 1], coupling[j], excess[j - 1]
    across = left * right * (g[j - 1] - g[j + 1])
    c = s + left + right
    jump = 1.0 / sq
    flux[j - 1] = (left * (s * g[j - 1] - jump) + across) / c
    flux[j] = (right * (jump - s * g[j + 1]) + across) / c
    np.multiply(excess, g[1:-1], res)
    res -= flux[:-1]
    res += flux[1:]
    return res


def _node_values(problem, scheme):
    """The node system at the Stehfest nodes and its solution.

    Returns sqrt(lambda), shape (m,), the ``_system`` arrays and the node
    values with the walls, shape (N+2, m); row j is the source.  The
    arrays of shape (N, m) and up are workspace arrays.
    """
    sq = math.sqrt(math.log(2.0) / problem.T) * scheme._sqrt_ks
    nodes, sigmas, excess, coupling = _system(problem, sq)
    g = _reduce(excess, coupling, problem.source_layer - 1, 1.0 / sq)
    return sq, nodes, sigmas, excess, coupling, g


@_scratch
def boundary_values(problem, scheme=None):
    """Time-domain internal-boundary values f_i(T), i = 1..N-1."""
    if scheme is None:
        scheme = stehfest_weights()
    g = _node_values(problem, scheme)[-1]
    f = g @ ((math.log(2.0) / problem.T) * scheme.weights)
    if not np.all(np.isfinite(f)):
        raise NumericalError("non-finite Laplace-domain boundary values")
    j = problem.source_layer  # drop the walls and the source
    return np.concatenate((f[1:j], f[j + 1 : -1]))


@_scratch
def greens_function(problem, scheme=None, xs=None):
    """Time-domain Green's function on the abscissas ``xs``.

    One batched solve covers all Stehfest nodes; the field, boundary
    values and flux-jump diagnostics are inverted together.
    """
    if scheme is None:
        scheme = stehfest_weights()
    b = problem.medium.boundaries
    xs = np.linspace(b[0], b[-1], 101) if xs is None else np.asarray(xs, dtype=float)
    sq, nodes, sigmas, excess, coupling, g = _node_values(problem, scheme)
    w = (math.log(2.0) / problem.T) * scheme.weights
    j = problem.source_layer
    vals = _field(nodes, sigmas, sq, g, xs) @ w
    f = g @ w
    fvals = np.concatenate((f[1:j], f[j + 1 : -1]))
    res = _flux_residual(excess, coupling, sq, g, j) @ (w * sq)
    jumps = np.concatenate((res[: j - 1], res[j:]))
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
