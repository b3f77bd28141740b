"""Tests for the Crank-Nicolson finite-difference benchmark solver."""

import math

import numpy as np
import pytest

from mlheat.analytic import StripProblem, strip_green
from mlheat.fd import FdGrid, fd_solve
from mlheat.layered import GreensProblem, LayeredMedium, greens_function


def constant_problem(sigma=0.5, x0=0.05, T=1.0):
    med = LayeredMedium.uniform(-1.0, 1.0, np.array([sigma]))
    return GreensProblem(medium=med, x0=x0, T=T)


class TestGrid:
    def test_for_problem(self):
        prob = constant_problem()
        grid = FdGrid.for_problem(prob, 41, 40)
        assert grid.N_x == 41
        assert grid.xs[0] == -1.0 and grid.xs[-1] == 1.0
        assert grid.dt == pytest.approx(1.0 / 40.0)

    def test_minimum_sizes(self):
        prob = constant_problem()
        with pytest.raises(ValueError):
            FdGrid.for_problem(prob, 4, 40)
        with pytest.raises(ValueError):
            FdGrid.for_problem(prob, 41, 4)


class TestFdSolve:
    def test_dirichlet_ends_exactly_zero(self):
        prob = constant_problem()
        sol = fd_solve(prob, FdGrid.for_problem(prob, 41, 40))
        assert sol.values[0] == 0.0
        assert sol.values[-1] == 0.0

    def test_table1_accuracy_vs_analytic(self):
        # a few percent of the peak, and worse than the semi-analytic solver
        prob = constant_problem()
        grid = FdGrid.for_problem(prob, 41, 40)
        fd = fd_solve(prob, grid)
        sp = StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=0.05, T=1.0)
        exact = np.array([strip_green(sp, x) for x in grid.xs])
        ml = greens_function(prob, xs=grid.xs).values
        peak = exact.max()
        fd_err = np.max(np.abs(fd.values - exact))
        ml_err = np.max(np.abs(ml - exact))
        assert fd_err <= 0.05 * peak
        assert fd_err > ml_err

    def test_bounded_by_initial_peak(self):
        prob = constant_problem()
        for (nx, nt) in ((21, 10), (41, 40), (81, 20)):
            grid = FdGrid.for_problem(prob, nx, nt)
            sol = fd_solve(prob, grid)
            dx = grid.xs[1] - grid.xs[0]
            assert np.max(np.abs(sol.values)) <= 1.0 / dx + 1e-9

    def test_mass_non_increasing(self):
        prob_half = constant_problem(T=0.5)
        prob_full = constant_problem(T=1.0)
        grid_half = FdGrid.for_problem(prob_half, 81, 40)
        grid_full = FdGrid.for_problem(prob_full, 81, 80)
        m_half = np.trapezoid(fd_solve(prob_half, grid_half).values, grid_half.xs)
        m_full = np.trapezoid(fd_solve(prob_full, grid_full).values, grid_full.xs)
        assert m_full <= m_half <= 1.0 + 1e-9

    def test_smooth_data_second_order_in_space(self):
        # Gaussian initial data of width 0.2; nested grids 51/101/201 with a
        # fixed fine time step give a Richardson order estimate near 2
        prob = constant_problem(T=0.5)
        u0 = lambda x: math.exp(-x * x / (2.0 * 0.2**2))
        sols = {
            nx: fd_solve(prob, FdGrid.for_problem(prob, nx, 400), u0=u0)
            for nx in (51, 101, 201)
        }
        d1 = np.max(np.abs(sols[51].values - sols[101].values[::2]))
        d2 = np.max(np.abs(sols[101].values - sols[201].values[::2]))
        order = math.log2(d1 / d2)
        assert 1.8 <= order <= 2.2

    def test_grid_too_coarse_rejected(self):
        # thin layers collapse onto the same node after snapping
        med = LayeredMedium(
            np.array([-1.0, 0.01, 0.02, 1.0]), np.array([0.5, 0.6, 0.7])
        )
        prob = GreensProblem(medium=med, x0=0.5, T=1.0)
        with pytest.raises(ValueError):
            fd_solve(prob, FdGrid.for_problem(prob, 21, 20))

    def test_piecewise_flux_diagnostics_shape(self):
        med = LayeredMedium(
            np.array([-1.0, -0.25, 0.5, 1.0]), np.array([0.5, 0.8, 0.35])
        )
        prob = GreensProblem(medium=med, x0=0.1, T=0.5)
        sol = fd_solve(prob, FdGrid.for_problem(prob, 81, 40))
        assert sol.boundary_values.shape == (2,)
        assert sol.flux_jumps.shape == (2,)

    def test_u0_takes_the_curve_contract(self):
        # a constant u0 is sampled as the callable that returns it, bit for bit
        med = LayeredMedium(np.array([-1.0, -0.25, 0.5, 1.0]), np.array([0.5, 0.8, 0.35]))
        prob = GreensProblem(medium=med, x0=0.1, T=0.5)
        grid = FdGrid.for_problem(prob, 81, 40)
        const, called = fd_solve(prob, grid, u0=0.7), fd_solve(prob, grid, u0=lambda x: 0.7)
        for name in ("values", "boundary_values", "flux_jumps"):
            assert getattr(const, name).tobytes() == getattr(called, name).tobytes(), name
        # the grid's own array, returned by the callable, is not written to
        fd_solve(prob, grid, u0=lambda x: x)
        assert grid.xs[0] == -1.0 and grid.xs[-1] == 1.0
