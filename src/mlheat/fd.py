"""Finite-difference benchmark: Crank-Nicolson with implicit-Euler startup.

The non-divergent rewrite of the layered problem,

    u_t = Xi^2(x) u_xx + (d/dx Xi^2) u_x,

is stepped on a uniform grid.  The derivative of the piecewise-constant
Xi^2 is a train of delta spikes at the internal boundaries; each spike is
snapped to the nearest grid node with the normalization
delta(0) ~ 2/(y_N - y_0).  The source delta(x - x0) puts mass 1/dx on the
nearest node.  The first four steps use implicit Euler to damp the
oscillations the rough data would otherwise excite, the rest use
Crank-Nicolson.
"""

import sys
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_attributes
from .errors import ConfigError, NumericalError, integral
from .layered import SolutionField
from .transforms import _as_curve

# scipy.linalg is imported at the first FD solve, not with the package
__getattr__ = lazy_attributes(__name__, solve_banded="scipy.linalg:solve_banded")

_RANNACHER_STEPS = 4


@dataclass(frozen=True)
class FdGrid:
    """Uniform space-time grid for one solve."""

    N_x: int
    M_t: int
    xs: np.ndarray
    dt: float

    @classmethod
    def for_problem(cls, problem, N_x, M_t):
        N_x, M_t = integral(N_x, "N_x"), integral(M_t, "M_t")
        if N_x < 5:
            raise ConfigError(f"need at least 5 space nodes, got {N_x}")
        if M_t < _RANNACHER_STEPS + 1:
            raise ConfigError(f"need at least {_RANNACHER_STEPS + 1} time steps, got {M_t}")
        b = problem.medium.boundaries
        xs = np.linspace(b[0], b[-1], N_x)
        return cls(N_x=N_x, M_t=M_t, xs=xs, dt=problem.T / M_t)


def fd_solve(problem, grid, u0=None):
    """Solve the layered problem on ``grid`` and return a SolutionField.

    By default the initial condition is the unit point source of
    ``problem`` placed on the nearest node; passing ``u0`` (a constant, a
    Curve or a callable, as ``transforms._as_curve`` takes it) replaces it
    with smooth data sampled at the grid nodes.
    """
    med = problem.medium
    b = med.boundaries
    xs = grid.xs
    n = grid.N_x
    dx = xs[1] - xs[0]
    dt = grid.dt

    # the nearest node of each internal boundary and of the source, the
    # lower one on a tie; the boundaries' nodes must stay distinct and
    # interior, otherwise the grid cannot represent the layer structure
    pts = np.append(b[1:-1], problem.x0)
    k = np.clip(np.searchsorted(xs, pts), 1, n - 1)
    nodes = k - (pts - xs[k - 1] <= xs[k] - pts)
    bnodes = nodes[:-1]
    if np.any(np.diff(bnodes, prepend=0, append=n - 1) == 0):
        raise ConfigError("grid too coarse: layer boundaries collide after snapping")

    # per-node diffusion Xi^2 (left-continuous layer lookup)
    idx = np.clip(np.searchsorted(b, xs, side="left"), 1, med.n_layers)
    diff = med.sigmas[idx - 1] ** 2

    # Xi^2 per layer by pow, as numpy rounds a scalar sigma ** 2
    sig2 = np.float_power(med.sigmas, 2)

    # delta-spike convection at the snapped boundary nodes, Xi^2 jump
    # times delta(0) ~ 2/(y_N - y_0)
    conv = np.zeros(n)
    conv[bnodes] = np.diff(sig2) * (2.0 / (b[-1] - b[0]))

    # spatial operator A u = diff u_xx + conv u_x (interior rows only)
    sub = diff / dx ** 2 - conv / (2.0 * dx)
    main = -2.0 * diff / dx ** 2
    sup = diff / dx ** 2 + conv / (2.0 * dx)

    def banded_lhs(theta):
        # rows of I - theta dt A in solve_banded layout, Dirichlet ends
        ab = np.zeros((3, n))
        ab[1] = 1.0 - theta * dt * main
        ab[0, 2:] = -theta * dt * sup[1:-1]
        ab[2, :-2] = -theta * dt * sub[1:-1]
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        return ab

    def explicit_rhs(u, theta):
        # (I + theta dt A) u on interior rows
        r = u.copy()
        r[1:-1] += theta * dt * (
            sub[1:-1] * u[:-2] + main[1:-1] * u[1:-1] + sup[1:-1] * u[2:]
        )
        r[0] = r[-1] = 0.0
        return r

    if u0 is None:
        u = np.zeros(n)
        u[nodes[-1]] = 1.0 / dx
    else:
        u = np.array(_as_curve(u0)(xs))  # a copy: a callable may return its own array
    u[0] = u[-1] = 0.0

    lhs = {theta: banded_lhs(theta) for theta in (1.0, 0.5)}
    solve_banded = sys.modules[__name__].solve_banded
    for step in range(grid.M_t):
        theta = 1.0 if step < _RANNACHER_STEPS else 0.5
        u = solve_banded((1, 1), lhs[theta], explicit_rhs(u, 1.0 - theta))
        # identity rows still pick up rounding from pivoting; pin the
        # Dirichlet ends to exactly zero
        u[0] = u[-1] = 0.0
    if not np.all(np.isfinite(u)):
        raise NumericalError("finite-difference solution blew up")

    # one-sided flux mismatch at the snapped boundary nodes
    left = sig2[:-1] * (u[bnodes] - u[bnodes - 1]) / dx
    right = sig2[1:] * (u[bnodes + 1] - u[bnodes]) / dx
    return SolutionField(
        time=problem.T,
        xs=xs,
        values=u,
        boundary_values=u[bnodes],
        flux_jumps=left - right,
    )
