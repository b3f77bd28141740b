"""Tests for the layered-medium semi-analytic Green's function solver."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mlheat import _workspace, layered
from mlheat.analytic import StripProblem, strip_green
from mlheat.errors import ConfigError, NumericalError
from mlheat.laplace import stehfest_weights
from mlheat.layered import (
    GreensProblem,
    LayeredMedium,
    TridiagonalSystem,
    assemble_system,
    boundary_values,
    greens_function,
    laplace_field,
    locate_source_layer,
    solve_tridiagonal,
)


def uniform_medium(n_layers, sigma=0.5, y0=-1.0, yN=1.0):
    return LayeredMedium.uniform(y0, yN, np.full(n_layers, sigma))


class TestLayeredMedium:
    def test_uniform_split(self):
        med = uniform_medium(4)
        assert np.allclose(med.boundaries, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert med.n_layers == 4
        assert np.allclose(med.widths, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LayeredMedium(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            LayeredMedium(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LayeredMedium(np.array([0.0, 1.0]), np.array([-1.0]))

    def test_needs_at_least_one_layer(self):
        for boundaries in ([], [-1.0]):
            with pytest.raises(ConfigError, match="at least one layer, got 0"):
                LayeredMedium(np.array(boundaries), np.array([]))
        with pytest.raises(ConfigError, match="at least one layer, got 0"):
            LayeredMedium.uniform(-1.0, 1.0, [])


class TestLocateSourceLayer:
    def test_examples(self):
        med = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.5]))
        assert locate_source_layer(med, 0.5) == 2
        assert locate_source_layer(med, -0.5) == 1

    def test_on_internal_boundary_rejected(self):
        med = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            locate_source_layer(med, 0.0)

    def test_outside_strip_rejected(self):
        med = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            locate_source_layer(med, 2.0)
        with pytest.raises(ValueError):
            locate_source_layer(med, -1.0)


class TestAssembleSystem:
    def test_two_equal_layers(self):
        # D_1 = 2 sigma coth((l/sigma) sqrt(lambda)); rhs from the sinh ratio
        sigma, lam = 0.5, 2.0
        med = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([sigma, sigma]))
        prob = GreensProblem(medium=med, x0=-0.5, T=1.0)
        sys = assemble_system(prob, lam)
        w = 1.0 / sigma  # omega = l / sigma with l = 1
        s = math.sqrt(lam)
        assert sys.diag.shape == (1,)
        assert sys.diag[0] == pytest.approx(2.0 * sigma / math.tanh(w * s), rel=1e-13)
        # source layer j=1, gamma_2 = (x0 - y_0)/l_1 = 0.5
        expected_rhs = math.sinh(0.5 * w * s) / math.sinh(w * s) / s
        assert sys.rhs[0] == pytest.approx(expected_rhs, rel=1e-12)

    def test_matches_hand_formulas(self):
        lam = 3.7
        med = LayeredMedium(
            np.array([-1.0, -0.2, 0.4, 1.5]), np.array([0.6, 1.1, 0.3])
        )
        prob = GreensProblem(medium=med, x0=0.1, T=1.0)
        sys = assemble_system(prob, lam)
        s = math.sqrt(lam)
        om = med.widths / med.sigmas
        for i in range(2):
            D = med.sigmas[i] / math.tanh(om[i] * s) + med.sigmas[i + 1] / math.tanh(
                om[i + 1] * s
            )
            assert sys.diag[i] == pytest.approx(D, rel=1e-13)
        # signed off-diagonal entries of the symmetric matrix: -beta_i
        beta = med.sigmas[1] / math.sinh(om[1] * s)
        assert sys.offdiag[0] == pytest.approx(-beta, rel=1e-13)

    def test_source_gammas_sum_to_one(self):
        med = uniform_medium(5)
        prob = GreensProblem(medium=med, x0=0.13, T=1.0)
        j = prob.source_layer
        b = med.boundaries
        l = med.widths[j - 1]
        g1 = (b[j] - prob.x0) / l
        g2 = (prob.x0 - b[j - 1]) / l
        assert g1 + g2 == pytest.approx(1.0, rel=1e-14)

    def test_diagonal_dominance_at_stehfest_nodes(self):
        med = LayeredMedium(
            np.linspace(-1.0, 4.0, 51), np.exp(-np.arange(1, 51) / 50.0)
        )
        prob = GreensProblem(medium=med, x0=1.54, T=2.0)
        for lam in stehfest_weights(16).nodes(2.0):
            sys = assemble_system(prob, lam)
            off = np.abs(sys.offdiag)
            slack = sys.diag.copy()
            slack[:-1] -= off
            slack[1:] -= off
            assert np.all(slack > 0.0)

    def test_invalid_lambda(self):
        prob = GreensProblem(medium=uniform_medium(4), x0=0.3, T=1.0)
        with pytest.raises(ValueError):
            assemble_system(prob, 0.0)


class TestSolveTridiagonal:
    def test_identity(self):
        sys = TridiagonalSystem(
            diag=np.ones(5), offdiag=np.zeros(4), rhs=np.arange(5.0), lam=1.0
        )
        assert np.allclose(solve_tridiagonal(sys), np.arange(5.0), rtol=1e-15)

    def test_two_by_two(self):
        sys = TridiagonalSystem(
            diag=np.array([3.0, 3.0]),
            offdiag=np.array([1.0]),
            rhs=np.array([1.0, 0.0]),
            lam=1.0,
        )
        g = solve_tridiagonal(sys)
        assert g[0] == pytest.approx(3.0 / 8.0, rel=1e-14)
        assert g[1] == pytest.approx(-1.0 / 8.0, rel=1e-14)

    def test_random_dominant_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        n = 50
        off = rng.uniform(-1.0, 1.0, n - 1)
        diag = np.abs(rng.uniform(1.0, 2.0, n))
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
        rhs = rng.uniform(-1.0, 1.0, n)
        sys = TridiagonalSystem(diag=diag, offdiag=off, rhs=rhs, lam=1.0)
        g = solve_tridiagonal(sys)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(g - np.linalg.solve(dense, rhs))) <= 1e-12

    def test_dominance_violation_reported(self):
        sys = TridiagonalSystem(
            diag=np.array([1.0, 1.0]),
            offdiag=np.array([5.0]),
            rhs=np.array([1.0, 1.0]),
            lam=1.0,
        )
        with pytest.raises(NumericalError):
            solve_tridiagonal(sys)


class TestReduce:
    """The odd-even reduction against the dgtsv oracle at every parity."""

    @staticmethod
    def random_system(n, m, rng):
        """A batch of m dominant excess/coupling systems on n nodes."""
        excess = rng.uniform(0.5, 2.0, (n, m))
        coupling = rng.uniform(0.0, 1.0, (n + 1, m))
        coupling[0] = coupling[-1] = 0.0
        return excess, coupling

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_source_node_matches_dgtsv(self, n):
        # odd and even n, and a kept parity q of 0 and 1 at every level
        rng = np.random.default_rng(n)
        reduce = _workspace._scratch(lambda *args: layered._reduce(*args).copy())
        m = 3
        for p in range(n):
            excess, coupling = self.random_system(n, m, rng)
            r = rng.uniform(0.5, 2.0, m)
            g = reduce(excess, coupling, p, r)
            assert g.shape == (n + 2, m)
            assert np.all(g[0] == 0.0) and np.all(g[-1] == 0.0)
            for k in range(m):
                rhs = np.zeros(n)
                rhs[p] = r[k]
                want = solve_tridiagonal(TridiagonalSystem(
                    diag=excess[:, k] + coupling[:-1, k] + coupling[1:, k],
                    offdiag=-coupling[1:-1, k], rhs=rhs, lam=1.0))
                assert np.max(np.abs(g[1:-1, k] - want)) <= 1e-13 * np.max(np.abs(want))
            self.assert_held_rows_fit(n, p)
        assert _workspace._local.ws.top == 0

    @staticmethod
    def assert_held_rows_fit(n, p):
        # each level parks its sum and eliminated excess, 2 ne rows, in
        # the n + 2 rows of its solution, which are written on the way up
        while n > 1:
            q = p % 2
            ne = (n + q) // 2  # the nodes of parity 1 - q among 0..n-1
            assert 2 * ne <= n + 2
            n, p = n - ne, p // 2


class TestBoundaryValues:
    def test_mirror_symmetry(self):
        med_a = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([0.4, 0.9]))
        med_b = LayeredMedium(np.array([-1.0, 0.0, 1.0]), np.array([0.9, 0.4]))
        fa = boundary_values(GreensProblem(medium=med_a, x0=0.3, T=0.7))
        fb = boundary_values(GreensProblem(medium=med_b, x0=-0.3, T=0.7))
        assert np.allclose(fa, fb[::-1], rtol=1e-10)

    def test_long_time_decay(self):
        # the true values decay like exp(-pi^2 sigma^2 T / L^2) ~ 1e-14;
        # what remains is the Stehfest rounding floor (~1e-7 of unit scale)
        prob = GreensProblem(medium=uniform_medium(4), x0=0.3, T=50.0)
        assert np.max(np.abs(boundary_values(prob))) <= 1e-5

    def test_constant_sigma_against_analytic(self):
        med = uniform_medium(20)
        prob = GreensProblem(medium=med, x0=0.05, T=1.0)
        f = boundary_values(prob)
        sp = StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=0.05, T=1.0)
        exact = np.array([strip_green(sp, y) for y in med.boundaries[1:-1]])
        assert np.max(np.abs(f - exact)) <= 0.005 * exact.max()


class TestLaplaceField:
    def test_outer_boundaries_are_zero(self):
        prob = GreensProblem(medium=uniform_medium(4), x0=0.3, T=1.0)
        lam = 2.0
        sys = assemble_system(prob, lam)
        g = solve_tridiagonal(sys)
        assert laplace_field(prob, lam, g, -1.0) == pytest.approx(0.0, abs=1e-300)
        assert laplace_field(prob, lam, g, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_interpolates_boundary_values(self):
        prob = GreensProblem(medium=uniform_medium(4), x0=0.3, T=1.0)
        lam = 2.0
        g = solve_tridiagonal(assemble_system(prob, lam))
        for i, y in enumerate(prob.medium.boundaries[1:-1]):
            assert laplace_field(prob, lam, g, y) == pytest.approx(g[i], rel=1e-12)

    def test_source_gradient_at_layer_edge(self):
        # with zero boundary data the field inside the source layer is the
        # particular solution; its gradient at the left edge matches the
        # sinh-ratio closed form
        sigma, lam, x0 = 0.7, 3.0, 0.4
        med = LayeredMedium(np.array([0.0, 1.0]), np.array([sigma]))
        prob = GreensProblem(medium=med, x0=x0, T=1.0)
        g = np.empty(0)
        h = 1e-6
        grad = laplace_field(prob, lam, g, h) / h
        s = math.sqrt(lam) / sigma
        exact = math.sinh((1.0 - x0) * s) / math.sinh(s) / sigma**2
        assert grad == pytest.approx(exact, rel=1e-5)


class TestGreensFunction:
    def test_single_layer_matches_analytic(self):
        med = LayeredMedium(np.array([-1.0, 1.0]), np.array([0.5]))
        prob = GreensProblem(medium=med, x0=0.0, T=1.0)
        sol = greens_function(prob, xs=np.array([0.0]))
        assert abs(sol.values[0] - 0.5436) < 1e-4

    def test_nan_evaluation_point_rejected(self):
        prob = GreensProblem(medium=uniform_medium(4), x0=0.05, T=1.0)
        with pytest.raises(ConfigError, match="outside the strip"):
            greens_function(prob, xs=[0.0, math.nan])

    def test_empty_evaluation_points(self):
        prob = GreensProblem(medium=uniform_medium(4), x0=0.05, T=1.0)
        sol = greens_function(prob, xs=[])
        assert sol.values.shape == (0,)
        assert len(sol.boundary_values) == 3

    def test_source_field_symmetry_piecewise(self):
        med = LayeredMedium(
            np.array([-1.0, -0.3, 0.2, 1.0]), np.array([0.5, 0.8, 0.35])
        )
        xs = np.array([-0.6, -0.1, 0.4, 0.7, 0.9])
        x0 = -0.05
        u_fwd = greens_function(
            GreensProblem(medium=med, x0=x0, T=1.0), xs=xs
        ).values
        u_swp = np.array(
            [
                greens_function(
                    GreensProblem(medium=med, x0=float(x), T=1.0),
                    xs=np.array([x0]),
                ).values[0]
                for x in xs
            ]
        )
        peak = np.max(np.abs(u_fwd))
        assert np.max(np.abs(u_fwd - u_swp)) <= 1e-6 * peak

    def test_mass_not_exceeding_one(self):
        med = LayeredMedium(
            np.array([-1.0, -0.3, 0.2, 1.0]), np.array([0.5, 0.8, 0.35])
        )
        prob = GreensProblem(medium=med, x0=0.4, T=0.5)
        xs = np.linspace(-1.0, 1.0, 1001)
        u = greens_function(prob, xs=xs).values
        assert np.trapezoid(u, xs) <= 1.0 + 1e-9

    def test_value_continuity_at_internal_boundaries(self):
        med = LayeredMedium(
            np.array([-1.0, -0.3, 0.2, 1.0]), np.array([0.5, 0.8, 0.35])
        )
        prob = GreensProblem(medium=med, x0=0.4, T=0.5)
        eps = 1e-10
        peak = np.max(greens_function(prob).values)
        for y in med.boundaries[1:-1]:
            xs = np.array([y - eps, y, y + eps])
            u = greens_function(prob, xs=xs).values
            # one-sided limits agree up to the inversion rounding floor
            assert abs(u[0] - u[1]) <= 1e-6 * peak
            assert abs(u[2] - u[1]) <= 1e-6 * peak

    def test_refinement_order_for_smooth_sigma(self):
        # piecewise sampling of a smooth sigma(x): doubling the layer count
        # converges at second order or better
        def solve(n):
            b = np.linspace(0.0, 2.0, n + 1)
            mids = 0.5 * (b[:-1] + b[1:])
            med = LayeredMedium(b, 0.6 + 0.2 * np.sin(mids))
            prob = GreensProblem(medium=med, x0=0.93, T=0.4)
            return greens_function(prob, xs=np.linspace(0.2, 1.8, 7)).values

        u25, u50, u100 = solve(25), solve(50), solve(100)
        d1 = np.max(np.abs(u25 - u50))
        d2 = np.max(np.abs(u50 - u100))
        assert math.log2(d1 / d2) >= 1.8

    def test_natural_grid_and_flux_diagnostics(self):
        med = LayeredMedium(
            np.array([-1.0, -0.3, 0.2, 1.0]), np.array([0.5, 0.8, 0.35])
        )
        prob = GreensProblem(medium=med, x0=0.4, T=0.5)
        sol = greens_function(prob)
        assert sol.xs[0] == med.boundaries[0] and sol.xs[-1] == med.boundaries[-1]
        assert sol.boundary_values.shape == (2,)
        peak = np.max(np.abs(sol.values))
        assert np.max(np.abs(sol.flux_jumps)) <= 1e-6 * peak


class TestThinLayers:
    """Accuracy does not fall with the layer count (no cancellation)."""

    @pytest.mark.parametrize("n_layers", [2000, 20000])
    def test_uniform_strip_against_closed_form(self, n_layers):
        med = uniform_medium(n_layers)
        sol = greens_function(GreensProblem(medium=med, x0=0.05, T=1.0),
                              xs=np.linspace(-1.0, 1.0, 101))
        sp = StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=0.05, T=1.0)
        exact = strip_green(sp, sol.xs)
        peak = np.max(exact)
        assert np.max(np.abs(sol.values - exact)) <= 1e-4 * peak
        exact_b = strip_green(sp, med.boundaries[1:-1])
        assert np.max(np.abs(sol.boundary_values - exact_b)) <= 1e-4 * peak


def random_medium(n, seed):
    """n layers of random width on [-1, 1] with sigma in [0.1, 2]."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.1, 1.0, n))
    boundaries = np.concatenate(([-1.0], 2.0 * edges / edges[-1] - 1.0))
    boundaries[-1] = 1.0
    return LayeredMedium(boundaries, rng.uniform(0.1, 2.0, n))


class TestOneInversionOrder:
    """The Stehfest sum runs in one order for every shape, so a point
    asked alone or in a sub-batch gets the bits it gets in the whole grid,
    and boundary_values() those of greens_function()."""

    XS = np.linspace(-1.0, 1.0, 201)

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("n_layers", [20, 200, 2000])
    def test_points_in_any_batch_equal_the_grid(self, n_layers, kind):
        med = uniform_medium(n_layers) if kind == "uniform" else random_medium(n_layers, 5)
        problem = GreensProblem(medium=med, x0=0.05, T=1.0)
        whole = greens_function(problem, xs=self.XS)
        for size in (1, 2, 7):
            parts = [greens_function(problem, xs=self.XS[i:i + size]).values
                     for i in range(0, len(self.XS), size)]
            assert np.array_equal(np.concatenate(parts), whole.values), size
        assert np.array_equal(boundary_values(problem), whole.boundary_values)


@st.composite
def random_problems(draw):
    """A random medium of 2 to 2000 layers, a random source and a horizon
    T in [0.005, 0.5]."""
    medium = random_medium(draw(st.integers(2, 2000)), draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.floats(-0.95, 0.95))
    assume(x0 not in medium.boundaries)
    T = 10.0 ** draw(st.floats(np.log10(0.005), np.log10(0.5)))
    return medium, x0, T


def profile(medium, x0, T, xs):
    return greens_function(GreensProblem(medium=medium, x0=x0, T=T), xs=xs).values


FINE = np.linspace(-1.0, 1.0, 4001)


class TestRandomMedia:
    """Invariants of the Green's function on random layered media.

    The Stehfest sum amplifies the rounding of the Laplace values, most
    where the profile has decayed.  Over 300 random problems the largest
    readings were, as fractions of the peak, 6.5e-7 below zero, 3.5e-7
    for a source at a wall, 4.7e-6 for symmetry and 2.5e-5 for
    continuity, and the mass exceeded 1 by 3.6e-6; the tolerances are
    1e-5, 1e-5, 1e-4, 1e-4 and 1e-4.
    """

    @settings(max_examples=25, deadline=None)
    @given(random_problems())
    def test_zero_dirichlet_ends(self, problem):
        medium, x0, T = problem
        u = profile(medium, x0, T, FINE)
        assert u[0] == 0.0 and u[-1] == 0.0
        # a source moved onto either wall leaves (almost) nothing
        peak = np.max(u)
        for wall in (-1.0 + 1e-9, 1.0 - 1e-9):
            assert np.max(np.abs(profile(medium, wall, T, FINE))) <= 1e-5 * peak

    @settings(max_examples=25, deadline=None)
    @given(random_problems())
    def test_positive(self, problem):
        u = profile(*problem, FINE)
        assert np.min(u) >= -1e-5 * np.max(u)

    @settings(max_examples=25, deadline=None)
    @given(random_problems(), st.lists(st.floats(-0.99, 0.99), min_size=3, max_size=3))
    def test_source_field_symmetry(self, problem, probes):
        medium, x0, T = problem
        assume(not set(probes) & set(medium.boundaries))
        peak = np.max(profile(medium, x0, T, FINE))
        fwd = profile(medium, x0, T, np.array(probes))
        swapped = [profile(medium, x, T, np.array([x0]))[0] for x in probes]
        assert np.max(np.abs(fwd - swapped)) <= 1e-4 * peak

    @settings(max_examples=25, deadline=None)
    @given(random_problems(), st.floats(0.0, 1.0))
    # the x0 profile has decayed to 0.0105 while the two compared peak at
    # 0.866 and differ by 2^-20 (Stehfest rounding)
    @example((random_medium(12, 0), -0.875, 10.0 ** -0.5), 0.5)
    def test_continuity_at_internal_boundaries(self, problem, pick):
        medium, x0, T = problem
        b = medium.boundaries
        y = b[1 + int(pick * (len(b) - 3))]
        eps = 1e-9
        u = profile(medium, x0, T, FINE)
        peak = np.max(u)
        # in x, across the boundary
        near = profile(medium, x0, T, np.array([y - eps, y, y + eps]))
        assert np.max(np.abs(near - near[1])) <= 1e-4 * peak
        # in x0: a source on either side of the boundary, against their own peak
        left = profile(medium, y - eps, T, FINE)
        right = profile(medium, y + eps, T, FINE)
        assert np.max(np.abs(left - right)) <= 1e-4 * max(np.max(left), np.max(right))

    @settings(max_examples=25, deadline=None)
    @given(random_problems())
    def test_mass_at_most_one(self, problem):
        # the profile has a kink at every boundary and can be 0.01 wide,
        # so the trapezoid rule needs a grid finer than FINE
        xs = np.linspace(-1.0, 1.0, 16001)
        assert np.trapezoid(profile(*problem, xs), xs) <= 1.0 + 1e-4


class TestLazyFluxJumps:
    """greens_function leaves the flux jumps to their first read."""

    PROBLEM = GreensProblem(medium=random_medium(300, 7), x0=0.05, T=0.2)
    XS = np.linspace(-1.0, 1.0, 51)

    @staticmethod
    def count_residuals(monkeypatch):
        calls = []
        residual = layered._flux_residual
        monkeypatch.setattr(layered, "_flux_residual",
                            lambda *args: calls.append(1) or residual(*args))
        return calls

    def test_computed_once_at_the_first_read(self, monkeypatch):
        calls = self.count_residuals(monkeypatch)
        sol = greens_function(self.PROBLEM, xs=self.XS)
        assert calls == []
        first = sol.flux_jumps
        assert len(calls) == 1
        assert sol.flux_jumps is first
        assert len(calls) == 1
        assert first.shape == (self.PROBLEM.medium.n_layers - 1,)

    def test_late_read_equals_an_immediate_read(self):
        immediate = greens_function(self.PROBLEM, xs=self.XS).flux_jumps
        sol = greens_function(self.PROBLEM, xs=self.XS)
        greens_function(GreensProblem(random_medium(4000, 8), x0=-0.3, T=0.4))
        assert np.array_equal(sol.flux_jumps, immediate)

    def test_reads_in_other_threads_equal_an_immediate_read(self):
        # four threads race to the first read of each field; one that
        # finds the jumps missing solves for them itself
        immediate = greens_function(self.PROBLEM, xs=self.XS).flux_jumps
        fields = [greens_function(self.PROBLEM, xs=self.XS) for _ in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                reads = [pool.submit(lambda sol=sol: sol.flux_jumps)
                         for sol in fields for _ in range(4)]
                late = [read.result(timeout=60) for read in reads]
        finally:
            sys.setswitchinterval(interval)
        for jumps in late + [sol.flux_jumps for sol in fields]:
            assert np.array_equal(jumps, immediate)

    def test_non_finite_jumps_raise_at_the_read(self, monkeypatch):
        monkeypatch.setattr(layered, "_flux_residual",
                            lambda excess, *args: np.full(excess.shape, math.nan))
        sol = greens_function(self.PROBLEM, xs=self.XS)
        assert np.all(np.isfinite(sol.values))
        with pytest.raises(NumericalError, match="non-finite flux jumps"):
            sol.flux_jumps
        assert _workspace._local.ws.top == 0

    def test_given_jumps_are_kept(self):
        jumps = np.array([1.0, -2.0])
        sol = layered.SolutionField(time=1.0, xs=np.zeros(1), values=np.zeros(1),
                                    flux_jumps=jumps)
        assert sol.flux_jumps is jumps
        assert layered.SolutionField(1.0, np.zeros(1), np.zeros(1)).flux_jumps.shape == (0,)
        with pytest.raises(AttributeError, match="no attribute 'flux_jump'"):
            sol.flux_jump


class TestWorkspace:
    """Solves share one scratch workspace per thread, and none sees another.

    Every public entry releases its scratch on return and on error, and
    returns fresh arrays, so a solve is bit-identical whatever ran before
    it and leaves earlier results untouched.
    """

    XS = np.linspace(-1.0, 1.0, 201)

    @staticmethod
    def outputs(problem, xs):
        """Every array the public entries return for ``problem``."""
        sol = greens_function(problem, xs=xs)
        out = {"values": sol.values, "boundary": sol.boundary_values,
               "jumps": sol.flux_jumps, "boundary_values": boundary_values(problem)}
        if problem.medium.n_layers >= 2:
            system = assemble_system(problem, 2.0)
            g = solve_tridiagonal(system)
            out.update(diag=system.diag, offdiag=system.offdiag, rhs=system.rhs,
                       field=np.array([laplace_field(problem, 2.0, g, x) for x in (-0.5, 0.3)]))
        return out

    @staticmethod
    def assert_released():
        assert _workspace._local.ws.top == 0

    @staticmethod
    def assert_same(got, want):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 3000), st.integers(0, 2**31))
    @example(7, 1, 0)
    @example(7, 20000, 1)
    def test_solves_do_not_see_each_other(self, n_a, n_b, seed):
        a = GreensProblem(random_medium(n_a, seed), x0=0.05, T=0.1)
        b = GreensProblem(random_medium(n_b, seed + 1), x0=-0.3, T=0.4)
        first = self.outputs(a, self.XS)
        first_kept = {k: v.copy() for k, v in first.items()}
        other = self.outputs(b, self.XS)
        other_kept = {k: v.copy() for k, v in other.items()}
        self.assert_same(self.outputs(a, self.XS), first_kept)
        self.assert_same(first, first_kept)
        # a call that raises after its solve still releases the scratch
        with pytest.raises(ConfigError, match="outside the strip"):
            greens_function(b, xs=np.array([0.0, 2.0]))
        self.assert_released()
        self.assert_same(self.outputs(a, self.XS), first_kept)
        self.assert_released()
        self.assert_same(first, first_kept)
        self.assert_same(other, other_kept)

    def test_threads_match_the_serial_solves(self):
        problems = [GreensProblem(random_medium(n, seed), x0=0.05, T=0.1)
                    for n, seed in ((3000, 1), (40, 2), (1500, 3), (700, 4))]
        serial = [self.outputs(p, self.XS) for p in problems]

        def solve_many(problem):
            return [self.outputs(problem, self.XS) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-solve as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(solve_many, problems, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for want, runs in zip(serial, threaded):
            for got in runs:
                self.assert_same(got, want)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    def test_large_solve_takes_no_fresh_pages(self):
        # ~19 MB of temporaries allocated afresh on every call go back to
        # the system when freed and fault in again on the next call: about
        # 4700 minor faults per call at N = 20000
        resource = pytest.importorskip("resource")
        problem = GreensProblem(medium=uniform_medium(20000), x0=0.05, T=1.0)
        xs = np.linspace(-1.0, 1.0, 1001)
        scheme = stehfest_weights()
        # the first call sizes the workspace; the second brings its pages in
        for _ in range(2):
            greens_function(problem, scheme, xs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        greens_function(problem, scheme, xs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 200, f"{faults} minor page faults in one N = 20000 solve"
