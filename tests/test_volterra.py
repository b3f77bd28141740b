"""Tests for the moving-boundary (single-layer) Volterra machinery."""

import math

import numpy as np
import pytest

from mlheat.analytic import StripProblem, strip_green
from mlheat.errors import ConfigError, NumericalError
from mlheat.special_functions import _image_sum, _theta_sum, folded_kernel, theta3_dz
from mlheat.volterra import (
    GitLayerProblem,
    _gradient_residual,
    _self_peak,
    build_internal_boundaries,
    check_refinement,
    git_field_single_layer,
    git_kernel_set,
    solve_volterra_single_layer,
)


def moving_problem(M=50):
    # corner-compatible moving-boundary problem: u0 matches the boundary
    # data at t=0, so the gradients stay bounded near tau = 0
    return GitLayerProblem(
        y_minus=0.0,
        y_plus=lambda t: 1.0 + 0.3 * t,
        chi_minus=0.1,
        chi_plus=lambda t: 0.2 + 0.1 * t,
        u0=lambda x: 0.1 + 0.1 * x + math.sin(math.pi * x),
        T=0.8,
        M=M,
    )


def caloric(c, x, t):
    """u = c0 + c1 x + c2 (x^2 + 2t) + c3 (x^3 + 6xt), a solution of u_t = u_xx."""
    x = np.asarray(x, dtype=float)
    return c[0] + c[1] * x + c[2] * (x * x + 2.0 * t) + c[3] * (x ** 3 + 6.0 * x * t)


def caloric_dx(c, x, t):
    return c[1] + 2.0 * c[2] * x + c[3] * (3.0 * x * x + 6.0 * t)


def caloric_problem(c, y0, v_lo, v_hi, T, M):
    # the strip [y0 + v_lo t, y0 + 1 + v_hi t] with u itself as the
    # initial and Dirichlet data, so every history term of the march works
    def lo(t):
        return y0 + v_lo * np.asarray(t, dtype=float)

    def hi(t):
        return y0 + 1.0 + v_hi * np.asarray(t, dtype=float)

    return GitLayerProblem(
        y_minus=lo, y_plus=hi,
        chi_minus=lambda t: caloric(c, lo(t), t),
        chi_plus=lambda t: caloric(c, hi(t), t),
        u0=lambda x: caloric(c, x, 0.0), T=T, M=M,
    )


def stepwise_rhs(problem, ts, om, th):
    """Right-hand sides of the two gradient equations at tau = ts[-1].

    The step-by-step reference for the march's tables: each term on its
    own, the weakly singular one interval by interval in closed form.
    om, th hold the gradient history at ts[:-1].
    """
    ym, yp = problem.y_minus, problem.y_plus
    tau = ts[-1]
    ymt, ypt = float(ym(tau)), float(yp(tau))
    l = ypt - ymt
    hist, mids = ts[:-1], 0.5 * (ts[:-1] + ts[1:])
    dh, dm = tau - hist, tau - mids
    cm, cp = problem.chi_minus(ts), problem.chi_plus(ts)
    xi = np.linspace(float(ym(0.0)), float(yp(0.0)), problem.n_xi)
    i0 = [np.trapezoid(problem.u0(xi) * folded_kernel(tau, ymt - xi + shift, l, 1), xi)
          for shift in (0.0, l)]
    b = np.array([-cm[-1], cp[-1]]) / math.sqrt(math.pi * tau)

    def weak(chi):
        total = 0.0
        for ta, tb, ca, cb in zip(ts[:-1], ts[1:], chi[:-1], chi[1:]):
            m = (cb - ca) / (tb - ta)
            ua, ub = tau - ta, tau - tb
            total -= 2.0 * m * (math.sqrt(ua) - math.sqrt(ub))
            if ub > 0.0:
                total -= 2.0 * (ca + m * ua - chi[-1]) * (1.0 / math.sqrt(ua) - 1.0 / math.sqrt(ub))
        return total / (2.0 * math.sqrt(math.pi))

    def stieltjes(a, chi, spiked):
        # integral of chi d(eta) by parts; eta(s) = K(tau - s, a(s), l)
        # less the Kronecker spike on a self kernel, zero at s = tau
        def eta(delta, s):
            return folded_kernel(delta, a(s), l) - spiked / np.sqrt(np.pi * delta)
        return -chi[0] * eta(tau, 0.0) - np.dot(eta(dm, mids), np.diff(chi))

    s_m = (stieltjes(lambda s: ymt - ym(s), cm, True)
           - stieltjes(lambda s: ymt - yp(s), cp, False))
    s_p = (stieltjes(lambda s: ymt - ym(s) + l, cm, False)
           - stieltjes(lambda s: ymt - yp(s) + l, cp, True))
    wts = 2.0 * np.sqrt(dh) * (np.sqrt(tau - ts[:-1]) - np.sqrt(tau - ts[1:]))
    gm = _self_peak(dh, ymt - ym(hist))
    gp = _self_peak(dh, ypt - yp(hist))
    k_cross_m = folded_kernel(dh, ymt - yp(hist), l, 1)
    k_cross_p = folded_kernel(dh, ymt - ym(hist) + l, l, 1)
    f_m = th * k_cross_m + om * (folded_kernel(dh, ymt - ym(hist), l, 1) + gm)
    f_p = th * (folded_kernel(dh, ymt - yp(hist) + l, l, 1) + gp) + om * k_cross_p
    c_m = np.trapezoid(np.append(f_m, 0.0), ts)
    c_p = np.trapezoid(np.append(f_p, 0.0), ts)
    return (-(i0[0] + b[0] + weak(cm) + s_m - om @ (gm * wts) + c_m),
            i0[1] + b[1] - weak(cp) + s_p - th @ (gp * wts) + c_p)


class TestBuildInternalBoundaries:
    def test_constant_externals(self):
        bset = build_internal_boundaries(-1.0, 1.0, 4, 1, 1.0)
        assert bset.n_interior == 3
        for i, y in enumerate((-0.5, 0.0, 0.5)):
            assert np.allclose(bset.coeffs[i], [y, 0.0], atol=1e-14)

    def test_linear_externals_linear_interiors(self):
        bset = build_internal_boundaries(-1.0, lambda t: 1.0 + t, 2, 1, 1.0)
        # midpoint of [-1, 1 + t] is t/2
        assert np.allclose(bset.coeffs[0], [0.0, 0.5], atol=1e-14)
        ts = np.linspace(0.0, 1.0, 9)
        assert np.allclose(bset.evaluate(0, ts), 0.5 * ts, atol=1e-14)

    def test_higher_degrees_interpolate_split(self):
        cm = lambda t: -1.0 - 0.2 * t
        cp = lambda t: 1.0 + 0.5 * t * t
        for degree in (2, 3):
            bset = build_internal_boundaries(cm, cp, 3, degree, 1.0)
            # the fitted polynomials stay strictly between the externals
            ts = np.linspace(0.0, 1.0, 50)
            lo = np.array([cm(t) for t in ts])
            hi = np.array([cp(t) for t in ts])
            for i in range(bset.n_interior):
                v = bset.evaluate(i, ts)
                assert np.all(v > lo) and np.all(v < hi)

    def test_crossing_externals_rejected(self):
        with pytest.raises(ConfigError):
            build_internal_boundaries(lambda t: t, lambda t: 1.0 - 2.0 * t, 3, 1, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            build_internal_boundaries(-1.0, 1.0, 1, 1, 1.0)
        with pytest.raises(ConfigError):
            build_internal_boundaries(-1.0, 1.0, 4, 5, 1.0)


class TestKernels:
    def test_requires_ordered_times(self):
        with pytest.raises(ConfigError):
            git_kernel_set(0.5, 0.5, 0.0, 1.0, 0.3)
        with pytest.raises(ConfigError):
            git_kernel_set(0.3, 0.5, 0.0, 1.0, 0.3)

    def test_dual_series_agreement(self):
        # image form vs theta form, each called on both sides of the switch
        l = 1.0
        for delta in np.geomspace(5e-3, 5.0, 50):
            for a in (0.0, 0.3, -0.7, 1.0):
                ei = _image_sum(delta, a, l, 0)
                et = _theta_sum(delta, a, l, 0)
                assert abs(ei - et) <= 1e-10 * max(1.0, abs(ei))
                ui = _image_sum(delta, a, l, 1)
                ut = _theta_sum(delta, a, l, 1)
                assert abs(ui - ut) <= 1e-10 * max(1.0, abs(ui))

    def test_theta_form_matches_theta_derivative(self):
        # ups(delta, a, l) = (pi / 2 l^2) theta3'(pi a / 2l, exp(-pi^2 delta / l^2))
        l, delta, a = 1.3, 0.9, 0.4
        q = math.exp(-math.pi**2 * delta / l**2)
        expected = (math.pi / (2.0 * l * l)) * theta3_dz(math.pi * a / (2.0 * l), q)
        assert folded_kernel(delta, a, l, deriv=1) == pytest.approx(expected, rel=1e-12)

    def test_constant_boundary_self_kernels(self):
        # for constant boundaries ups0 coincides with ups at the boundary
        # (the extra self-peak term vanishes with y(tau) = y(s)) and the
        # cross-coupling kernel vanishes by odd-image cancellation
        k = git_kernel_set(0.7, 0.2, 0.0, 1.0, 0.4)
        assert k.ups0_minus == pytest.approx(
            folded_kernel(0.5, 0.0, 1.0, deriv=1), abs=1e-300
        )
        assert folded_kernel(0.5, -1.0, 1.0, deriv=1) == pytest.approx(0.0, abs=1e-14)
        assert k.ups0_minus == 0.0
        assert k.ups0_plus == 0.0

    def test_spike_only_at_exact_boundary_point(self):
        base = git_kernel_set(0.6, 0.1, 0.0, 1.0, 0.5)
        at_left = git_kernel_set(0.6, 0.1, 0.0, 1.0, 0.0)
        # the Kronecker correction removes the singular n=0 image at the
        # left boundary: eta_minus stays finite and small there
        assert abs(at_left.eta_minus) < abs(base.eta_minus) + 10.0
        assert np.isfinite(at_left.eta_minus)


class TestSolver:
    def test_homogeneous_is_identically_zero(self):
        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
            u0=lambda x: 0.0, T=1.0, M=30,
        )
        g = solve_volterra_single_layer(prob)
        assert np.max(np.abs(g.omega)) == 0.0
        assert np.max(np.abs(g.theta)) == 0.0

    def test_steady_state_linear_profile(self):
        # u = x is a steady solution: gradients are constant +-1
        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=1.0,
            u0=lambda x: x, T=0.5, M=40,
        )
        g = solve_volterra_single_layer(prob)
        # startup nodes carry a small quadrature transient; terminal values
        # settle to the steady gradients much more tightly
        assert np.max(np.abs(g.omega + 1.0)) <= 1e-5
        assert np.max(np.abs(g.theta - 1.0)) <= 1e-5
        assert abs(g.omega[-1] + 1.0) <= 1e-8
        assert abs(g.theta[-1] - 1.0) <= 1e-8

    def test_strip_green_gradients_match_analytic(self):
        # fixed strip with the analytic Green's function as the oracle:
        # start from its profile at t0 > 0 and march to T
        sigma, t0, T = 1.0, 0.05, 0.55
        x0 = 0.3

        def u_exact(x, t):
            return strip_green(StripProblem(0.0, 1.0, sigma, x0, t), x)

        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
            u0=lambda x: u_exact(x, t0), T=T - t0, M=200,
        )
        g = solve_volterra_single_layer(prob)
        h = 1e-6
        exact_omega = -(u_exact(h, T) - 0.0) / h
        exact_theta = (0.0 - u_exact(1.0 - h, T)) / h
        assert g.omega[-1] == pytest.approx(exact_omega, rel=5e-3)
        assert g.theta[-1] == pytest.approx(exact_theta, rel=5e-3)

    def test_mirror_symmetry(self):
        u0 = lambda x: math.sin(math.pi * x)
        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
            u0=u0, T=0.4, M=30,
        )
        g = solve_volterra_single_layer(prob)
        # the data is symmetric about x = 1/2, so Omega(t) = Theta(t)
        assert np.max(np.abs(g.omega - g.theta)) <= 1e-10

    def test_residual_decays_monotonically(self):
        res = []
        for M in (25, 50, 100, 200):
            prob = moving_problem(M)
            g = solve_volterra_single_layer(prob)
            res.append(_gradient_residual(prob, g))
        assert res[0] > res[1] > res[2] > res[3]

    def test_refinement_order(self):
        g1 = solve_volterra_single_layer(moving_problem(50)).omega[-1]
        g2 = solve_volterra_single_layer(moving_problem(100)).omega[-1]
        g3 = solve_volterra_single_layer(moving_problem(200)).omega[-1]
        order = math.log2(abs(g1 - g2) / abs(g2 - g3))
        assert order >= 0.9

    @pytest.mark.parametrize("c, y0, v_lo, v_hi, T", [
        ((0.5, 0.3, 1.0, -0.7), 0.0, 0.0, 0.0, 0.7),
        ((1.0, -0.4, 0.5, 0.8), -0.5, 0.0, 0.0, 0.4),
        ((0.0, 0.0, 0.0, 1.0), 0.2, -0.2, 0.3, 0.7),
        ((1.0, 0.0, 0.5, 0.5), 0.0, 0.2, 0.1, 0.5),
    ], ids=["fixed", "fixed-shifted", "moving-widening", "moving-drifting"])
    def test_caloric_polynomial_end_gradients(self, c, y0, v_lo, v_hi, T):
        # fixed and moving strips with nonzero boundary data: the
        # weakly singular, Stieltjes, memory and coupling terms all act.
        # The errors are at most 2e-4; scaling the weakly singular term
        # by 1.01 moves them to 2.5e-3 - 6e-3, so 5e-3 would not see it
        g = solve_volterra_single_layer(caloric_problem(c, y0, v_lo, v_hi, T, 200))
        left = caloric_dx(c, y0 + v_lo * T, T)
        right = caloric_dx(c, y0 + 1.0 + v_hi * T, T)
        err = max(abs(g.omega[-1] + left), abs(g.theta[-1] - right))
        assert err <= 1e-3 * max(abs(left), abs(right))

    def test_march_satisfies_stepwise_equations(self):
        # a moving strip whose rows take both kernel branches, over
        # several blocks of the tables: each solved gradient equals the
        # step-by-step right-hand side of its own history
        prob = caloric_problem((0.5, 0.3, 1.0, -0.7), 0.2, -0.2, 0.3, 0.7, 60)
        g = solve_volterra_single_layer(prob)
        scale = max(np.max(np.abs(g.omega)), np.max(np.abs(g.theta)))
        for k in range(1, prob.M + 1):
            om, th = stepwise_rhs(prob, g.grid[:k + 1], g.omega[:k], g.theta[:k])
            assert abs(g.omega[k] - om) <= 1e-13 * scale
            assert abs(g.theta[k] - th) <= 1e-13 * scale

    def test_check_refinement(self):
        check_refinement(moving_problem(50))
        with pytest.raises(NumericalError):
            check_refinement(moving_problem(10), rel_tol=1e-12)


class TestField:
    def test_boundary_and_initial_values(self):
        prob = moving_problem(40)
        g = solve_volterra_single_layer(prob)
        tau = 0.5
        yp = 1.0 + 0.3 * tau
        assert git_field_single_layer(prob, g, 0.0, tau) == pytest.approx(0.1)
        assert git_field_single_layer(prob, g, yp, tau) == pytest.approx(
            0.2 + 0.1 * tau
        )
        assert git_field_single_layer(prob, g, 0.4, 0.0) == pytest.approx(
            prob.u0(0.4)
        )

    def test_zero_problem_zero_field(self):
        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
            u0=lambda x: 0.0, T=1.0, M=20,
        )
        g = solve_volterra_single_layer(prob)
        assert git_field_single_layer(prob, g, 0.37, 0.8) == 0.0

    def test_interior_value_matches_analytic(self):
        sigma, t0, T = 1.0, 0.05, 0.45
        x0 = 0.3

        def u_exact(x, t):
            return strip_green(StripProblem(0.0, 1.0, sigma, x0, t), x)

        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
            u0=lambda x: u_exact(x, t0), T=T - t0, M=100,
        )
        g = solve_volterra_single_layer(prob)
        v = git_field_single_layer(prob, g, 0.45, T - t0)
        exact = u_exact(0.45, T)
        assert v == pytest.approx(exact, rel=1e-2)

    def test_moving_caloric_field_converges(self):
        # the boundary fluxes pair theta with y_plus and omega with
        # y_minus; swapped, the error here stalls near 1.7e-2
        c, y0, v_lo, v_hi, T = (0.0, 0.0, 0.0, 1.0), 0.0, 0.1, -0.2, 0.3
        lo, hi = y0 + v_lo * T, y0 + 1.0 + v_hi * T
        xs = lo + np.array([0.25, 0.5, 0.75]) * (hi - lo)
        exact = caloric(c, xs, T)
        errs = []
        for M in (50, 100, 200):
            prob = caloric_problem(c, y0, v_lo, v_hi, T, M)
            g = solve_volterra_single_layer(prob)
            v = np.array([git_field_single_layer(prob, g, x, T) for x in xs])
            errs.append(np.max(np.abs(v - exact)) / np.max(np.abs(exact)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3

    def test_outside_strip_rejected(self):
        prob = moving_problem(20)
        g = solve_volterra_single_layer(prob)
        with pytest.raises(ConfigError):
            git_field_single_layer(prob, g, -0.2, 0.5)
        with pytest.raises(ConfigError):
            git_field_single_layer(prob, g, 1.5, 0.5)
