"""Tests for the moving-boundary (single-layer) Volterra machinery."""

import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mlheat.analytic import StripProblem, strip_green
from mlheat.errors import ConfigError, NumericalError
from mlheat import _workspace, volterra
from mlheat.special_functions import (_REACH, _image_sum, _theta_orders, _theta_sum,
                                     folded_kernel, theta3_dz)
from mlheat.transforms import Curve, _as_curve
from mlheat.volterra import (
    GitLayerProblem,
    GradientPair,
    _gradient_residual,
    _initial_terms,
    _sample,
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


def sqrt_problem(sqrt, M=40):
    # a moving strip whose curves are built from sqrt alone: math.sqrt
    # (scalar-only) and np.sqrt (vectorized) round alike, so the two
    # problems are equal and must give equal results
    return GitLayerProblem(
        y_minus=lambda t: 0.1 * sqrt(1.0 + t) - 0.1,
        y_plus=lambda t: 0.8 + 0.2 * sqrt(1.0 + t),
        chi_minus=lambda t: sqrt(1.0 + t),
        chi_plus=lambda t: 2.0 * sqrt(1.0 + 0.5 * t),
        u0=lambda x: sqrt(1.0 + 3.0 * x), T=0.6, M=M,
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
    xi, u0w = reference_rule(problem)
    i0 = [image_sum(tau, c - xi, l, 1) @ u0w for c in (ymt, ypt)]
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


@functools.lru_cache(maxsize=4)
def reference_rule(problem, pieces=4000, nodes=20):
    """Nodes xi and weights times u0(xi) of a composite Gauss-Legendre rule
    on ``pieces`` equal pieces of the strip at t = 0, ``nodes`` a piece:
    the solver's u0 table, its breaks and its rules play no part."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(float(problem.y_minus(0.0)), float(problem.y_plus(0.0)), pieces + 1)
    half = 0.5 * np.diff(edges)[:, None]
    xi = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    return xi, (half * w).ravel() * problem.u0(xi)


def image_sum(tau, a, l, deriv):
    """The d-th derivative of K(tau, a, l) at the monotone offsets a by the
    explicit image sum of exp(-x^2 / (4 tau)) / sqrt(pi tau), x = a + 2nl,
    each image taken where it is within 14 sqrt(tau) (exp(-49) of its
    peak) of the offsets."""
    reach = 14.0 * math.sqrt(tau)
    total = np.zeros(a.shape)
    # increasing views of a and the total
    up, out = (a, total) if a[-1] >= a[0] else (a[::-1], total[::-1])
    for n in range(math.floor((-reach - up[-1]) / (2.0 * l)),
                   math.ceil((reach - up[0]) / (2.0 * l)) + 1):
        i, j = np.searchsorted(up, [-reach - 2.0 * n * l, reach - 2.0 * n * l])
        x = up[i:j] + 2.0 * n * l
        out[i:j] += x ** deriv * np.exp(x * x * (-0.25 / tau))
    return total * (-0.5 / tau) ** deriv / math.sqrt(math.pi * tau)


def brute_initial_terms(problem, tau, c, l):
    """``_initial_terms`` with deriv 1 at the centres c by the reference rule."""
    xi, u0w = reference_rule(problem)
    return np.array([[image_sum(tau[r], c[e, r] - xi, l[r], 1) @ u0w for r in range(len(tau))]
                     for e in range(2)])


def brute_initial_field(problem, x, tau, ymt, l):
    """The field's initial term by the reference rule, and its scale, the
    integral of the magnitude of its integrand's two terms."""
    xi, u0w = reference_rule(problem)
    direct, mirror = image_sum(tau, x - xi, l, 0), image_sum(tau, x + xi - 2.0 * ymt, l, 0)
    return 0.5 * (direct - mirror) @ u0w, 0.5 * (direct + mirror) @ np.abs(u0w)


def dipping_plus(t):
    # width 1.4 on the grid k / 12, dipping by half to 0.7 at t = 3e-3,
    # where tau = 3e-3 lies just above (l / 13)^2: the theta series there
    # needs 27 pi / 0.7, nearly twice what the table resolves (90.5 / 1.4)
    return 1.4 - 0.7 * np.exp(-((np.asarray(t) - 3e-3) / 1e-3) ** 2)


INITIAL_DATA_CASES = pytest.mark.parametrize("y_minus, y_plus, u0", [
    (0.0, 1.0, lambda x: 0.3 + np.sin(2.0 * x) + x * x),
    (lambda t: 0.3 + 0.5 * np.asarray(t), lambda t: 1.3 + 0.5 * np.asarray(t),
     lambda x: 1.0 + x),
    (lambda t: -0.2 * np.asarray(t), lambda t: 1.0 + 0.3 * np.asarray(t),
     lambda x: np.cos(3.0 * x) + 0.5),
    (-2.0, 3.0, lambda x: 1.0 + 0.1 * x + np.sin(x)),
    (0.0, dipping_plus, lambda x: 1.0 + x),
    # kinks inside the strip, on edges of the reference rule's pieces
    (0.0, 1.0, Curve(times=[-0.5, 0.3, 0.55, 1.5], values=[0.2, 1.0, 0.4, 0.9])),
], ids=["fixed", "translating", "width-varying", "width-5", "dip-off-grid", "sampled-u0"])


class TestInitialTerms:
    # u0 is nonzero at both walls, so every row carries the wall peaks
    @INITIAL_DATA_CASES
    def test_rows_match_image_sum(self, y_minus, y_plus, u0):
        prob = GitLayerProblem(y_minus=y_minus, y_plus=y_plus, chi_minus=0.0, chi_plus=0.0,
                               u0=u0, T=1.0, M=12)
        both_sides = False
        for T in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            s = _sample(prob, np.linspace(0.0, T, prob.M + 1))
            tau, (ymt, ypt) = s.t[1:], s.y[:, 1:]
            l = ypt - ymt
            i0 = _initial_terms(s, tau, s.y[:, 1:], l, 1)
            ref = brute_initial_terms(prob, tau, s.y[:, 1:], l)
            assert np.all(np.abs(i0 - ref) <= 1e-13 * np.max(np.abs(ref), axis=0))
            table_rows = tau >= (l / _REACH) ** 2
            both_sides |= table_rows.any() and not table_rows.all()
        # some march has rows on both sides of the kernel/table split
        assert both_sides

    def test_sampled_u0_is_tabled_between_its_knots(self):
        # a piecewise linear u0 takes one panel per piece inside the strip,
        # and the start gradients are the slopes of the end pieces
        u0 = Curve(times=[-0.5, 0.3, 0.55, 1.5], values=[0.2, 1.0, 0.4, 0.9])
        prob = GitLayerProblem(y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
                               u0=u0, T=1.0, M=4)
        assert np.array_equal(_sample(prob, np.linspace(0.0, 1.0, 5)).edges, [0.0, 0.3, 0.55, 1.0])
        g = solve_volterra_single_layer(prob)
        assert g.omega[0] == pytest.approx(-1.0, rel=1e-13)
        assert g.theta[0] == pytest.approx(0.5 / 0.95, rel=1e-13)

    def test_one_table_per_march(self, monkeypatch):
        built = []
        table = volterra._FourierTable
        monkeypatch.setattr(volterra, "_FourierTable",
                            lambda *args: built.append(args) or table(*args))
        prob = moving_problem(120)
        solve_volterra_single_layer(prob)  # several blocks of rows
        assert len(built) == 1

    @INITIAL_DATA_CASES
    def test_field_term_matches_image_sum(self, y_minus, y_plus, u0):
        prob = GitLayerProblem(y_minus=y_minus, y_plus=y_plus, chi_minus=0.0, chi_plus=0.0,
                               u0=u0, T=1.0, M=12)
        s = _sample(prob, np.linspace(0.0, prob.T, prob.M + 1))
        sides, off_table = set(), False
        # on and off the grid, on both sides of tau = (l / 13)^2
        for tau in (1e-4, 1e-3, 3e-3, 1e-2, 0.05, 1.0 / 12.0, 0.37, 1.0):
            at = np.array([tau])
            ymt = float(prob.y_minus(at)[0])
            l = float(prob.y_plus(at)[0]) - ymt
            theta_side = tau >= (l / _REACH) ** 2
            sides.add(theta_side)
            # a theta-side tau whose frequencies pass the table's top falls
            # back to the kernel window
            top = _theta_orders(math.pi ** 2 * tau / l ** 2)[-1] * math.pi / l
            off_table |= theta_side and top > s.fourier.top
            for x in ymt + l * np.array([1e-3, 0.05, 0.25, 0.5, 0.77, 0.999]):
                ref, scale = brute_initial_field(prob, x, tau, ymt, l)
                i0 = _initial_terms(s, at, np.array([[x], [2.0 * ymt - x]]), np.array([l]), 0)
                assert abs(0.5 * (i0[0, 0] - i0[1, 0]) - ref) <= 1e-13 * scale
        assert sides == {False, True}
        assert off_table == (y_plus is dipping_plus)

    def test_initial_terms_once_per_march(self, monkeypatch):
        calls = []
        initial_terms = volterra._initial_terms
        monkeypatch.setattr(volterra, "_initial_terms",
                            lambda s, tau, *rest: calls.append(len(tau))
                            or initial_terms(s, tau, *rest))
        prob = moving_problem(120)
        solve_volterra_single_layer(prob)  # several blocks of rows
        assert calls == [prob.M]

    def test_unresolvable_table_is_numerical_error(self):
        # a strip that narrows 400-fold: its theta rows need frequencies
        # that no table up to degree _FOURIER_MAX carries on the initial
        # width, and that is known before any sum
        prob = GitLayerProblem(y_minus=0.0, y_plus=lambda t: 1.0 - 0.9975 * np.asarray(t),
                               chi_minus=0.0, chi_plus=0.0, u0=lambda x: 1.0 + x, T=1.0, M=4)
        with pytest.raises(NumericalError, match="Fourier table"):
            solve_volterra_single_layer(prob)


def fixed_strip(name, M):
    if name == "strip-green":
        start = StripProblem(0.0, 1.0, 1.0, 0.3, 0.05)
        return GitLayerProblem(y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
                               u0=lambda x: strip_green(start, x), T=0.5, M=M)
    if name == "caloric":
        return caloric_problem((1.0, -0.4, 0.5, 0.8), -0.5, 0.0, 0.0, 0.4, M)
    # width 5, with data that vary in time at both walls
    return GitLayerProblem(y_minus=-2.0, y_plus=3.0, chi_minus=lambda t: 1.0 + np.sin(t),
                           chi_plus=lambda t: 2.0 - 0.3 * np.asarray(t) ** 2,
                           u0=lambda x: 1.0 + 0.2 * (x + 2.0) + np.sin(0.2 * np.pi * (x + 2.0)) ** 2,
                           T=10.0, M=M)


class TestLagRows:
    @pytest.mark.parametrize("M", [25, 60, 200])
    @pytest.mark.parametrize("name", ["strip-green", "caloric", "width-5"])
    def test_rows_match_march_rows(self, name, M):
        # the lag form's data terms equal the block march's d to rounding,
        # and the block's coupling K is rounding too: on fixed walls it is
        # K' at the offsets 0 and +-l, where the odd, 2l-periodic K'
        # vanishes; the lags lie on both sides of the image/theta switch.
        # K holds row k's k pairs after those of the rows before it
        prob = fixed_strip(name, M)
        s = _sample(prob, np.linspace(0.0, prob.T, M + 1))
        l = s.y[1, 0] - s.y[0, 0]
        assert s.t[1] < l * l / math.pi < s.t[-1]
        i0 = _initial_terms(s, s.t[1:], s.y[:, 1:], np.full(M, l), 1)
        d, K = volterra._march_rows(s, 1, M + 1, i0)
        scale = np.max(np.abs(d), axis=0)
        assert np.all(scale > 0.0)
        assert np.all(np.abs(volterra._lag_rows(s, i0) - d) <= 1e-14 * scale)
        assert np.all(np.abs(K) <= 1e-15 * np.repeat(scale, np.arange(1, M + 1))[:, None])

    @pytest.mark.parametrize("name", ["strip-green", "caloric", "width-5"])
    def test_fixed_march_is_its_data_terms(self, name):
        # with no coupling the gradients after the start are the lag rows
        prob = fixed_strip(name, 60)
        g = solve_volterra_single_layer(prob)
        s = g._march
        i0 = _initial_terms(s, s.t[1:], s.y[:, 1:], s.y[1, 1:] - s.y[0, 1:], 1)
        d = volterra._lag_rows(s, i0)
        assert np.array_equal(g.omega[1:], d[0])
        assert np.array_equal(g.theta[1:], d[1])

    def test_fixed_march_takes_the_pair_weights_of_one_row(self, monkeypatch):
        # the lag rows read the block march's pair weights at row M's M
        # pairs, which hold every lag, so the fixed path stays O(M)
        pairs = []
        pair_weights = volterra._pair_weights
        monkeypatch.setattr(volterra, "_pair_weights",
                            lambda s, k, j: pairs.append((k, j)) or pair_weights(s, k, j))
        solve_volterra_single_layer(fixed_strip("caloric", 60))
        ((k, j),) = pairs
        assert np.array_equal(k, np.full(60, 60)) and np.array_equal(j, np.arange(60))

    def test_fixed_march_reads_one_row_of_the_fourier_table(self, monkeypatch):
        # every theta row of a fixed strip has the same width, so the table
        # is read on a single row of frequencies
        shapes = []
        call = volterra._FourierTable.__call__
        monkeypatch.setattr(volterra._FourierTable, "__call__",
                            lambda self, w: shapes.append(w.shape) or call(self, w))
        solve_volterra_single_layer(fixed_strip("width-5", 200))
        (shape,) = shapes
        assert shape[0] == 1 and 1 <= shape[1] <= 27


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

    @pytest.mark.parametrize("degree", [2, 3])
    def test_short_horizon(self, degree):
        # the samples are kept apart by 1e-9 T, so a horizon far below 1
        # still finds its degree - 1 interior samples
        T = 1e-9
        bset = build_internal_boundaries(-1.0, lambda t: 1.0 + np.asarray(t), 3, degree, T)
        ts = np.linspace(0.0, T, 9)
        for i in range(bset.n_interior):
            split = -1.0 + (i + 1) / 3.0 * (2.0 + ts)
            assert np.allclose(bset.evaluate(i, ts), split, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("degree, T", [(3, 1e-110), (2, 1e-200), (3, 1e-200)])
    def test_underflowing_horizon_is_numerical_error(self, degree, T):
        # T**degree underflows the Vandermonde matrix in raw t, which is
        # then singular
        msg = f"degree-{degree} interpolation in t at T = {T!r}"
        with pytest.raises(NumericalError, match=msg):
            build_internal_boundaries(-1.0, lambda t: 1.0 + np.asarray(t), 3, degree, T)

    def test_crossing_externals_rejected(self):
        with pytest.raises(ConfigError):
            build_internal_boundaries(lambda t: t, lambda t: 1.0 - 2.0 * t, 3, 1, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            build_internal_boundaries(-1.0, 1.0, 1, 1, 1.0)
        with pytest.raises(ConfigError):
            build_internal_boundaries(-1.0, 1.0, 4, 5, 1.0)
        # a horizon that is not positive and finite
        for T in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="horizon"):
                build_internal_boundaries(-1.0, 1.0, 4, 1, T)


class TestArguments:
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ConfigError, match="horizon"):
            dataclasses.replace(moving_problem(), T=T)

    @pytest.mark.parametrize("M", [1, 0, -3])
    def test_at_least_two_steps(self, M):
        with pytest.raises(ConfigError, match="time steps"):
            dataclasses.replace(moving_problem(), M=M)

    @pytest.mark.parametrize("tau", [-1e-3, 0.81])
    def test_field_time_outside_the_horizon(self, tau):
        prob = moving_problem(25)
        g = solve_volterra_single_layer(prob)
        with pytest.raises(ConfigError, match="outside the horizon"):
            git_field_single_layer(prob, g, 0.5, tau)

    def test_field_time_past_the_gradient_grid(self):
        # gradients marched to T = 0.4 do not reach tau = 0.6 of a longer problem
        short = dataclasses.replace(moving_problem(25), T=0.4)
        g = solve_volterra_single_layer(short)
        with pytest.raises(ConfigError, match="does not cover"):
            git_field_single_layer(moving_problem(25), g, 0.5, 0.6)


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

    def test_kernel_set_matches_march_tables(self):
        # one row of the march's coupling K on a linear moving strip,
        # rebuilt node by node from the six kernels and the self peaks;
        # its lags tau - s take both the image and the theta form
        prob = GitLayerProblem(y_minus=lambda t: 0.1 + 0.2 * np.asarray(t),
                               y_plus=lambda t: 1.2 - 0.3 * np.asarray(t),
                               chi_minus=0.0, chi_plus=0.0, u0=1.0, T=1.0, M=40)
        t = np.linspace(0.0, prob.T, prob.M + 1)
        s = _sample(prob, t)
        k = 30
        _, K = volterra._march_rows(s, k, k + 1, np.zeros((2, 1)))
        ymt, ypt = s.y[:, k]
        ref = np.zeros((2, 2, k))
        for j in range(k):
            ua, ub = t[k] - t[j], t[k] - t[j + 1]
            memory = 2.0 * math.sqrt(ua) * (math.sqrt(ua) - math.sqrt(ub))
            peak_m = _self_peak(ua, ymt - s.y[0, j])
            peak_p = _self_peak(ua, ypt - s.y[1, j])
            at_plus = git_kernel_set(t[k], t[j], prob.y_minus, prob.y_plus, s.y[1, j])
            at_minus = git_kernel_set(t[k], t[j], prob.y_minus, prob.y_plus, s.y[0, j])
            q = s.q[j]
            ref[:, :, j] = [[peak_m * memory - q * at_plus.ups0_minus, -q * at_plus.ups_minus],
                            [q * at_minus.ups_plus, q * at_minus.ups0_plus - peak_p * memory]]
        # K[e, j, i] is ref[e, i, j]: the row's pairs j against the unknown i
        ref = ref.transpose(0, 2, 1)
        assert np.all(np.abs(K - ref) <= 1e-14 * np.abs(ref))

    def test_march_rows_hold_pairs_row_by_row(self, monkeypatch):
        # a block's coupling K lists its pairs (row k, node j < k) row by
        # row, in the order _pair_weights takes them; each row's entries
        # are those of a block of that row alone, to rounding (the image
        # and theta orders are taken per batch)
        prob = moving_problem(40)
        s = _sample(prob, np.linspace(0.0, prob.T, prob.M + 1))
        pairs = []
        pair_weights = volterra._pair_weights
        monkeypatch.setattr(volterra, "_pair_weights",
                            lambda s, k, j: pairs.append((k, j)) or pair_weights(s, k, j))
        rows = np.arange(7, 19)
        d, K = volterra._march_rows(s, 7, 19, np.zeros((2, len(rows))))
        assert d.shape == (2, len(rows)) and K.shape == (2, rows.sum(), 2)
        ((k, j),) = pairs
        assert np.array_equal(k, np.repeat(rows, rows))
        assert np.array_equal(j, np.concatenate([np.arange(n) for n in rows]))
        alone = np.concatenate([volterra._march_rows(s, n, n + 1, np.zeros((2, 1)))[1]
                                for n in rows], axis=1)
        assert np.all(np.abs(K - alone) <= 1e-14 * np.max(np.abs(alone)))

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

    @pytest.mark.parametrize("moving, M", [
        pytest.param(moving, M, id=f"moving-{M}" if moving else str(M))
        for moving in (False, True) for M in (50, 200, 400, 800)])
    def test_uniform_data_has_zero_gradients(self, moving, M):
        # u = 1 solves the problem, so every gradient is 0; the first rows
        # see a Gaussian derivative of width sqrt(T / M) on each wall. The
        # moving strip takes the block tables, the fixed one the lag rows
        if moving:
            prob = GitLayerProblem(y_minus=lambda t: 0.1 + 0.1 * np.asarray(t),
                                   y_plus=lambda t: 1.1 - 0.2 * np.asarray(t),
                                   chi_minus=1.0, chi_plus=1.0, u0=1.0, T=1.0, M=M)
        else:
            prob = GitLayerProblem(y_minus=0.0, y_plus=1.0, chi_minus=1.0, chi_plus=1.0,
                                   u0=1.0, T=0.1, M=M)
        g = solve_volterra_single_layer(prob)
        assert max(np.max(np.abs(g.omega)), np.max(np.abs(g.theta))) <= 1e-10

    def test_start_gradients_of_smooth_initial_data(self):
        # u0 = sin(pi x) + 0.3 x: u0'(0) = pi + 0.3 and u0'(1) = 0.3 - pi
        prob = GitLayerProblem(
            y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.3,
            u0=lambda x: np.sin(np.pi * x) + 0.3 * x, T=0.1, M=4,
        )
        g = solve_volterra_single_layer(prob)
        assert g.omega[0] == pytest.approx(-(math.pi + 0.3), rel=1e-11, abs=0.0)
        assert g.theta[0] == pytest.approx(0.3 - math.pi, rel=1e-11, abs=0.0)

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

    @pytest.mark.parametrize("y0, v_lo, v_hi", [(0.2, -0.2, 0.3), (0.0, 0.0, 0.0)],
                             ids=["moving", "fixed"])
    def test_march_satisfies_stepwise_equations(self, y0, v_lo, v_hi):
        # strips whose rows take both kernel branches, the moving one over
        # several blocks of the tables, the fixed one by its lag rows: each
        # solved gradient equals the step-by-step right-hand side of its
        # own history
        prob = caloric_problem((0.5, 0.3, 1.0, -0.7), y0, v_lo, v_hi, 0.7, 60)
        g = solve_volterra_single_layer(prob)
        scale = max(np.max(np.abs(g.omega)), np.max(np.abs(g.theta)))
        for k in range(1, prob.M + 1):
            om, th = stepwise_rhs(prob, g.grid[:k + 1], g.omega[:k], g.theta[:k])
            assert abs(g.omega[k] - om) <= 1e-13 * scale
            assert abs(g.theta[k] - th) <= 1e-13 * scale

    def test_block_size_does_not_change_the_march(self, monkeypatch):
        # a moving strip whose tables split into many blocks of one or a few
        # rows; n_max and the theta order are taken per batch, so the
        # results agree to rounding, not bitwise
        prob = moving_problem(150)
        ref = solve_volterra_single_layer(prob)
        ref_field = git_field_single_layer(prob, ref, 0.6, 0.7)
        blocks = []
        march_rows = volterra._march_rows
        monkeypatch.setattr(volterra, "_march_rows",
                            lambda s, k0, k1, i0: blocks.append(k1 - k0) or march_rows(s, k0, k1, i0))
        monkeypatch.setattr(volterra, "_BLOCK", 50)
        g = solve_volterra_single_layer(prob)
        assert len(blocks) > 100 and max(blocks) > 1
        scale = max(np.max(np.abs(ref.omega)), np.max(np.abs(ref.theta)))
        assert np.max(np.abs(g.omega - ref.omega)) <= 1e-14 * scale
        assert np.max(np.abs(g.theta - ref.theta)) <= 1e-14 * scale
        field = git_field_single_layer(prob, g, 0.6, 0.7)
        assert abs(field - ref_field) <= 1e-14 * max(abs(ref_field), 1.0)

    def test_only_moving_walls_take_the_block_tables(self, monkeypatch):
        # exactly fixed walls march on lag rows; a wall creeping by 1e-9 t
        # takes the blocks and solves a problem within about 1e-9 of it
        blocks = []
        march_rows = volterra._march_rows
        monkeypatch.setattr(volterra, "_march_rows",
                            lambda s, k0, k1, i0: blocks.append(k1 - k0) or march_rows(s, k0, k1, i0))
        c = (0.5, 0.3, 1.0, -0.7)
        fixed = solve_volterra_single_layer(caloric_problem(c, 0.0, 0.0, 0.0, 0.7, 60))
        assert blocks == []
        creeping = solve_volterra_single_layer(caloric_problem(c, 0.0, 0.0, 1e-9, 0.7, 60))
        assert sum(blocks) == 60
        scale = max(np.max(np.abs(fixed.omega)), np.max(np.abs(fixed.theta)))
        assert np.max(np.abs(creeping.omega - fixed.omega)) <= 1e-6 * scale
        assert np.max(np.abs(creeping.theta - fixed.theta)) <= 1e-6 * scale
        # a wall that is constant on the grid but not at its midpoints, where
        # the Stieltjes kernels read it, takes the blocks too
        bulging = GitLayerProblem(y_minus=0.0, chi_minus=0.0, chi_plus=0.0, u0=1.0, T=1.0, M=20,
                                  y_plus=lambda t: 1.0 + 0.1 * np.sin(20.0 * np.pi * t) ** 2)
        s = _sample(bulging, np.linspace(0.0, 1.0, 21))
        assert np.all(s.y[1] == 1.0) and np.all(s.y_mid[1] > 1.0)
        solve_volterra_single_layer(bulging)
        assert sum(blocks) == 80

    def test_check_refinement(self):
        check_refinement(moving_problem(50))
        with pytest.raises(NumericalError):
            check_refinement(moving_problem(10), rel_tol=1e-12)

    @pytest.mark.parametrize("y_minus, y_plus, where", [
        (1.0, lambda t: 0.5 + t, "at t = 0"),
        (0.0, lambda t: 1.0 - 6.0 * t * (1.0 - t), "inside the horizon"),
    ], ids=["at-start", "inside"])
    def test_crossing_boundaries_rejected(self, y_minus, y_plus, where):
        # both strips are proper again at T, so the field at T must find
        # the crossing in its history
        prob = GitLayerProblem(y_minus=y_minus, y_plus=y_plus, chi_minus=0.0,
                               chi_plus=0.0, u0=lambda x: 0.0, T=1.0, M=20)
        with pytest.raises(ConfigError, match=where):
            solve_volterra_single_layer(prob)
        zeros = np.zeros(prob.M + 1)
        g = GradientPair(omega=zeros, theta=zeros, grid=np.linspace(0.0, prob.T, prob.M + 1))
        x = 0.5 * (y_minus + float(y_plus(prob.T)))
        with pytest.raises(ConfigError, match=where):
            git_field_single_layer(prob, g, x, prob.T)


class TestCurveContract:
    def test_scalar_only_callables_match_vectorized_twins(self):
        a, b = sqrt_problem(math.sqrt), sqrt_problem(np.sqrt)
        ga, gb = solve_volterra_single_layer(a), solve_volterra_single_layer(b)
        assert np.array_equal(ga.omega, gb.omega) and np.array_equal(ga.theta, gb.theta)
        tau = 0.37 * a.T  # off the grid
        for f in (0.2, 0.5, 0.8):
            x = float(a.y_minus(tau)) + f * float(a.y_plus(tau) - a.y_minus(tau))
            assert git_field_single_layer(a, ga, x, tau) == git_field_single_layer(b, gb, x, tau)

    def test_quadrature_node_count_is_gone(self):
        with pytest.raises(TypeError):
            GitLayerProblem(y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
                            u0=1.0, T=1.0, M=10, n_xi=2001)

    def test_curves_normalized_once(self):
        prob = moving_problem(20)
        for name in ("y_minus", "y_plus", "chi_minus", "chi_plus", "u0"):
            c = getattr(prob, name)
            assert isinstance(c, Curve) and _as_curve(c) is c
            assert getattr(dataclasses.replace(prob, M=40), name) is c

    def test_sampled_curve_boundary(self):
        # the linear right end of the moving caloric strip as two samples
        c, T = (0.5, 0.3, 1.0, -0.7), 0.7
        ref = caloric_problem(c, 0.2, -0.2, 0.3, T, 60)
        prob = dataclasses.replace(ref, y_plus=Curve(times=[0.0, T], values=[1.2, 1.2 + 0.3 * T]))
        g, g_ref = solve_volterra_single_layer(prob), solve_volterra_single_layer(ref)
        scale = max(np.max(np.abs(g_ref.omega)), np.max(np.abs(g_ref.theta)))
        assert np.max(np.abs(g.omega - g_ref.omega)) <= 1e-12 * scale
        assert np.max(np.abs(g.theta - g_ref.theta)) <= 1e-12 * scale
        x = 0.5 * (float(prob.y_minus(T)) + float(prob.y_plus(T)))
        assert git_field_single_layer(prob, g, x, T) == pytest.approx(
            git_field_single_layer(ref, g_ref, x, T), rel=1e-12)


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

    def test_hand_made_pair_matches_march_pair(self):
        # a pair without the march's sample has the problem sampled afresh;
        # so has a pickled copy of the march's own pair
        prob = caloric_problem((0.5, 0.3, 1.0, -0.7), 0.2, -0.2, 0.3, 0.3, 25)
        g = solve_volterra_single_layer(prob)
        copies = [GradientPair(omega=g.omega, theta=g.theta, grid=g.grid),
                  pickle.loads(pickle.dumps(g))]
        for tau in (g.grid[17], 0.2345, prob.T):
            lo, hi = float(prob.y_minus(tau)), float(prob.y_plus(tau))
            for x in lo + np.array([0.1, 0.5, 0.9]) * (hi - lo):
                v = git_field_single_layer(prob, g, x, tau)
                for h in copies:
                    assert abs(git_field_single_layer(prob, h, x, tau) - v) <= 1e-14 * abs(v)

    def test_pair_of_other_problem_not_reused(self, monkeypatch):
        prob = moving_problem(30)
        g = solve_volterra_single_layer(prob)
        samples = []
        sample = volterra._sample
        monkeypatch.setattr(volterra, "_sample",
                            lambda *args: samples.append(args[0]) or sample(*args))
        git_field_single_layer(prob, g, 0.5, 0.6)
        assert samples == []
        # an equal problem is another object; a different u0 changes the field
        for other in (dataclasses.replace(prob), dataclasses.replace(prob, u0=lambda x: x * x)):
            v = git_field_single_layer(other, g, 0.5, 0.6)
            assert samples.pop() is other
            hand_made = GradientPair(omega=g.omega, theta=g.theta, grid=g.grid)
            assert v == git_field_single_layer(other, hand_made, 0.5, 0.6)
        assert git_field_single_layer(other, g, 0.5, 0.6) != git_field_single_layer(
            prob, g, 0.5, 0.6)

    def test_outside_strip_rejected(self):
        prob = moving_problem(20)
        g = solve_volterra_single_layer(prob)
        with pytest.raises(ConfigError):
            git_field_single_layer(prob, g, -0.2, 0.5)
        with pytest.raises(ConfigError):
            git_field_single_layer(prob, g, 1.5, 0.5)


FIELD_STRIPS = pytest.mark.parametrize("make", [
    lambda: moving_problem(80),
    lambda: fixed_strip("strip-green", 60),
    lambda: caloric_problem((0.5, 0.3, 1.0, -0.7), 0.2, -0.2, 0.3, 0.7, 60),
], ids=["moving", "fixed", "caloric"])


class TestFieldArray:
    """git_field_single_layer on an array of points at one tau."""

    @FIELD_STRIPS
    @pytest.mark.parametrize("block", [None, 200], ids=["one-block", "blocks"])
    def test_array_equals_scalar_loop(self, make, block, monkeypatch):
        prob = make()
        g = solve_volterra_single_layer(prob)
        if block:
            # a few points per block of the kernel pass
            monkeypatch.setattr(volterra, "_BLOCK", block)
        for tau in (g.grid[7], 0.37 * prob.T, prob.T):
            lo, hi = float(prob.y_minus(tau)), float(prob.y_plus(tau))
            xs = lo + (hi - lo) * np.linspace(0.01, 0.99, 41)
            v = git_field_single_layer(prob, g, xs, tau)
            ref = np.array([git_field_single_layer(prob, g, x, tau) for x in xs])
            assert np.all(np.abs(v - ref) <= 1e-14 * np.abs(ref))

    def test_scalar_gives_float_array_gives_its_shape(self):
        prob = moving_problem(30)
        g = solve_volterra_single_layer(prob)
        for x in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(git_field_single_layer(prob, g, x, 0.6)) is float
        for xs in ([0.2, 0.4], np.array([[0.2, 0.4, 0.6], [0.3, 0.5, 0.7]]), np.array([])):
            v = git_field_single_layer(prob, g, xs, 0.6)
            assert isinstance(v, np.ndarray) and v.shape == np.shape(xs)

    def test_rules_hold_per_element(self):
        prob = moving_problem(40)
        g = solve_volterra_single_layer(prob)
        tau = 0.5
        yp = 1.0 + 0.3 * tau
        xs = [0.0, 0.3, yp, 0.8]
        v = git_field_single_layer(prob, g, xs, tau)
        assert v[0] == 0.1 and v[2] == pytest.approx(0.2 + 0.1 * tau)
        for i in (1, 3):
            assert v[i] == pytest.approx(git_field_single_layer(prob, g, xs[i], tau), rel=1e-14)
        # at tau = 0 the walls give their data and the inside gives u0
        v = git_field_single_layer(prob, g, np.array([0.0, 0.4, 1.0]), 0.0)
        assert v[0] == 0.1 and v[2] == 0.2 and v[1] == pytest.approx(prob.u0(0.4), rel=1e-15)
        # one point outside rejects the call
        with pytest.raises(ConfigError, match="outside the strip"):
            git_field_single_layer(prob, g, np.array([0.3, 1.5, 0.6]), tau)

    def test_array_call_takes_one_pass_per_block_and_one_table_read(self, monkeypatch):
        prob = moving_problem(100)
        g = solve_volterra_single_layer(prob)
        passes, reads = [], []
        kernels = volterra._folded_kernels
        monkeypatch.setattr(volterra, "_folded_kernels",
                            lambda delta, *rest: passes.append(len(delta)) or kernels(delta, *rest))
        call = volterra._FourierTable.__call__
        monkeypatch.setattr(volterra._FourierTable, "__call__",
                            lambda self, w: reads.append(w.shape) or call(self, w))
        for P, tau in ((1, 0.6), (7, 0.7), (101, prob.T)):
            lo, hi = float(prob.y_minus(tau)), float(prob.y_plus(tau))
            git_field_single_layer(prob, g, lo + (hi - lo) * np.linspace(0.05, 0.95, P), tau)
            (n,) = set(passes)  # the history nodes before tau
            assert len(passes) == -(-P // (volterra._BLOCK // n))
            assert len(reads) == 1
            passes.clear()
            reads.clear()

    def test_scalar_loop_shares_the_state_of_its_tau(self, monkeypatch):
        prob = moving_problem(100)
        g = solve_volterra_single_layer(prob)
        reads, slopes = [], []
        call = volterra._FourierTable.__call__
        monkeypatch.setattr(volterra._FourierTable, "__call__",
                            lambda self, w: reads.append(w.shape) or call(self, w))
        derivative = volterra._derivative
        monkeypatch.setattr(volterra, "_derivative",
                            lambda *args: slopes.append(args[0]) or derivative(*args))
        for tau in (0.5 * prob.T, prob.T):
            lo, hi = float(prob.y_minus(tau)), float(prob.y_plus(tau))
            for x in lo + (hi - lo) * np.linspace(0.1, 0.9, 5):
                git_field_single_layer(prob, g, x, tau)
        # one table read per tau, and y' of each wall once for the march
        assert len(reads) == 2
        assert slopes == [prob.y_minus, prob.y_plus]


# one moving march plus a 101-point field at M = 200 and one fixed-wall
# march (the lag rows, which read _pair_weights too) plus a 101-point field
# at M = 2000 on the width-5 strip of fixed_strip, warmed twice, then the
# minor page faults of a third; in a fresh interpreter, because a large
# free earlier in a process raises glibc's dynamic thresholds and hides
# temporaries that go back to the system at the end of every block
FAULTS = """
import math, resource
import numpy as np
from mlheat import GitLayerProblem, git_field_single_layer, solve_volterra_single_layer
moving = GitLayerProblem(y_minus=0.0, y_plus=lambda t: 1.0 + 0.3 * t, chi_minus=0.1,
                         chi_plus=lambda t: 0.2 + 0.1 * t,
                         u0=lambda x: 0.1 + 0.1 * x + math.sin(math.pi * x), T=0.8, M=200)
fixed = GitLayerProblem(y_minus=-2.0, y_plus=3.0, chi_minus=lambda t: 1.0 + np.sin(t),
                        chi_plus=lambda t: 2.0 - 0.3 * np.asarray(t) ** 2,
                        u0=lambda x: 1.0 + 0.2 * (x + 2.0) + np.sin(0.2 * np.pi * (x + 2.0)) ** 2,
                        T=10.0, M=2000)
cases = [(moving, np.linspace(0.005, 1.235, 101)), (fixed, np.linspace(-1.95, 2.95, 101))]

def run():
    for problem, xs in cases:
        git_field_single_layer(problem, solve_volterra_single_layer(problem), xs, problem.T)

# the first call sizes the workspace; the second brings its pages in
for _ in range(2):
    run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkspace:
    """The march and the field take their scratch from the per-thread
    workspace that the kernels and the layered solve share.

    Each public entry releases it on return and on error and returns
    fresh arrays, so a call is bit-identical whatever ran before it and
    leaves earlier results untouched.
    """

    @staticmethod
    def outputs(problem):
        """Every array the march and the field return for ``problem``."""
        g = solve_volterra_single_layer(problem)
        lo, hi = float(problem.y_minus(problem.T)), float(problem.y_plus(problem.T))
        xs = lo + (hi - lo) * np.linspace(0.02, 0.98, 41)
        return {"omega": g.omega, "theta": g.theta,
                "field": git_field_single_layer(problem, g, xs, problem.T),
                "early": np.array(git_field_single_layer(problem, g, 0.5, 0.2 * problem.T)),
                "residual": np.array(_gradient_residual(problem, g))}

    @staticmethod
    def assert_released():
        ws = _workspace._local.ws
        assert ws.top == 0 and ws.depth == 0

    @staticmethod
    def assert_same(got, want):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_calls_do_not_see_each_other(self, monkeypatch):
        a = moving_problem(120)
        b = caloric_problem((0.0, 0.0, 0.0, 1.0), 0.2, -0.2, 0.3, 0.7, 45)
        first = self.outputs(a)
        first_kept = {k: v.copy() for k, v in first.items()}
        other = self.outputs(b)
        other_kept = {k: v.copy() for k, v in other.items()}
        self.assert_same(self.outputs(a), first_kept)
        self.assert_same(first, first_kept)
        self.assert_released()
        # calls that raise release the scratch: a point outside the strip,
        # and a march that fails inside a block, after its tables are taken
        g = solve_volterra_single_layer(b)
        with pytest.raises(ConfigError, match="outside the strip"):
            git_field_single_layer(b, g, np.array([0.3, 5.0]), b.T)
        self.assert_released()

        def failing(*args):
            raise NumericalError("inside a block")

        with monkeypatch.context() as patch:
            patch.setattr(volterra, "_self_peak", failing)
            with pytest.raises(NumericalError, match="inside a block"):
                solve_volterra_single_layer(a)
        self.assert_released()
        self.assert_same(self.outputs(a), first_kept)
        self.assert_same(first, first_kept)
        self.assert_same(other, other_kept)

    def test_threads_match_the_serial_calls(self):
        problems = [moving_problem(M) for M in (90, 30, 60)]
        problems.append(caloric_problem((0.5, 0.3, 1.0, -0.7), 0.0, 0.0, 0.0, 0.7, 60))
        serial = [self.outputs(p) for p in problems]

        def solve_many(problem):
            return [self.outputs(problem) for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-march as often as possible
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
    def test_march_and_field_take_no_fresh_pages(self):
        # each block's kernel temporaries, allocated afresh, went back to
        # the system at the end of the block and faulted in again in the
        # next: about 4300 minor faults per call
        pytest.importorskip("resource")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", FAULTS], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout.split()[-1])
        assert faults <= 200, f"{faults} minor page faults in the marches and fields of FAULTS"
