"""Tests for the changes of variables mapping model PDEs onto the heat equation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mlheat.errors import ConfigError, NumericalError
from mlheat.transforms import (
    Curve,
    TermStructure,
    _as_curve,
    bk_affine_zcb,
    bk_layer_chart,
    dupire_to_heat,
    nondivergent_to_divergent,
    verhulst_chart,
)


# a kinked curve: linear between knots that no halving of [0, 2] reaches
KNOTS, KINKED = [0.0, 0.4, 1.1, 2.0], [0.03, 0.07, 0.02, 0.05]


def piecewise_integrals(t, S, c):
    """For b linear between (KNOTS, KINKED): int_0^t b(u) e^(c u) du, and
    B(t) = int_S^t b with int_S^t B and int_S^t B^2, by exact polynomial
    antiderivatives on each piece."""
    P = np.polynomial.Polynomial
    exp_int, ends = 0.0, [0.0, 0.0, 0.0]
    pieces = list(zip(KNOTS, KNOTS[1:], KINKED, KINKED[1:]))
    for t0, t1, v0, v1 in pieces:
        slope = (v1 - v0) / (t1 - t0)
        # d/du e^(c u) ((b(u) - slope / c) / c) = e^(c u) b(u)
        prim = lambda u: math.exp(c * u) * (v0 + slope * (u - t0) - slope / c) / c
        exp_int += prim(min(t, t1)) - prim(t0) if t > t0 else 0.0
    for t0, t1, v0, v1 in reversed(pieces):
        b = P([v0 - t0 * (v1 - v0) / (t1 - t0), (v1 - v0) / (t1 - t0)])
        B = b.integ(lbnd=t1) + ends[0]
        polys = (B, B.integ(lbnd=t1) + ends[1], (B * B).integ(lbnd=t1) + ends[2])
        if t >= t0:
            return exp_int, *(float(q(t)) for q in polys)
        ends = [float(q(t0)) for q in polys]


def assert_fields_vectorize(chart, ts, state):
    """Every field called on an array equals the field called on each scalar."""
    fields = {"tau_of_t": lambda t: chart.tau_of_t(t),
              "x_of_state": lambda t: chart.x_of_state(t, state),
              "state_of_x": lambda t: chart.state_of_x(t, state),
              "multiplier": lambda t: chart.multiplier(t, state)}
    if chart.nu is not None:
        fields["nu"] = chart.nu
    for name, fn in fields.items():
        scalars = [fn(t) for t in ts]
        assert all(type(v) in (float, np.float64) for v in scalars), name
        assert np.array_equal(fn(ts), scalars), name
    taus = chart.tau_of_t(ts[1:-1])
    assert np.array_equal(chart.t_of_tau(taus), [chart.t_of_tau(x) for x in taus])


class TestCurve:
    def test_constant_scalar_and_array(self):
        c = Curve(constant=0.7)
        assert c(3.0) == 0.7
        out = c(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert np.all(out == 0.7)

    def test_sampled_interpolation(self):
        c = Curve(times=[0.0, 1.0, 2.0], values=[1.0, 3.0, 3.0])
        assert c(0.5) == pytest.approx(2.0)
        assert c(1.5) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Curve(times=[0.0], values=[1.0])
        with pytest.raises(ConfigError):
            Curve(times=[0.0, 0.0], values=[1.0, 2.0])
        with pytest.raises(ConfigError):
            Curve(times=[0.0, 1.0], values=[1.0, 2.0, 3.0])

    def test_as_curve_contract(self):
        const, sampled = Curve(constant=0.7), Curve(times=[0.0, 1.0], values=[1.0, 2.0])
        assert _as_curve(const) is const and _as_curve(sampled) is sampled
        c = _as_curve(0.7)
        assert isinstance(c, Curve) and c(2.0) == 0.7
        # a scalar-only callable: a scalar is a direct call, an array is
        # filled element by element in its own shape
        f = _as_curve(math.sqrt)
        assert _as_curve(f) is f
        assert type(f(4.0)) is float and f(4.0) == 2.0
        t = np.array([[1.0, 4.0], [9.0, 16.0]])
        assert f(t).dtype == float and np.array_equal(f(t), np.sqrt(t))
        assert f([1.0, 4.0]).tolist() == [1.0, 2.0]
        # a callable that ignores the shape of its argument
        assert np.array_equal(_as_curve(lambda x: 0.5)(np.ones(3)), np.full(3, 0.5))


class TestDupire:
    TS = TermStructure(r=0.02, q=0.01)

    def test_maps_match_quadrature(self):
        # tau = 1/2 int v e^{-2 int (r-q)}, x = K e^{-int (r-q)}, mult = e^{-int q}
        v0, T, t = 0.04, 1.0, 0.6
        chart = dupire_to_heat(self.TS, v0, T)
        drift = 0.02 - 0.01
        tau_ref, _ = quad(lambda u: 0.5 * v0 * math.exp(-2.0 * drift * u), 0.0, t)
        assert chart.tau_of_t(t) == pytest.approx(tau_ref, rel=1e-10)
        assert chart.x_of_state(t, 100.0) == pytest.approx(
            100.0 * math.exp(-drift * t), rel=1e-12)
        assert chart.multiplier(t) == pytest.approx(math.exp(-0.01 * t), rel=1e-12)
        assert chart.layer_clock is True

    def test_inverse_maps_roundtrip(self):
        chart = dupire_to_heat(self.TS, 0.04, 1.0)
        for t in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0):
            tau = chart.tau_of_t(t)
            assert chart.t_of_tau(tau) == pytest.approx(t, abs=1e-10)
            x = chart.x_of_state(t, 95.0)
            assert chart.state_of_x(t, x) == pytest.approx(95.0, rel=1e-12)

    def test_atm_value_matches_normal_model_closed_form(self):
        # price an at-the-money-forward call through the chart: the heat
        # solution with kink initial data has the closed form sqrt(tau/pi)
        # at the kink, so the model value is multiplier * sqrt(tau/pi).
        # The oracle is the normal-vol closed form DF * sqrt(Var(F_T)/2pi)
        # with forward variance integrated independently.
        r, q, v0, T, S0 = 0.02, 0.01, 0.04, 1.0, 100.0
        ts = TermStructure(r=r, q=q)
        chart = dupire_to_heat(ts, v0, T)
        value_chart = chart.multiplier(T) * math.sqrt(chart.tau_of_t(T) / math.pi)

        var_fwd, _ = quad(lambda s: v0 * math.exp(2.0 * (r - q) * (T - s)), 0.0, T)
        value_ref = math.exp(-r * T) * math.sqrt(var_fwd / (2.0 * math.pi))
        assert value_chart == pytest.approx(value_ref, rel=1e-10)

    def test_kinked_variance_matches_piecewise_closed_form(self):
        # r, q constant: tau = 1/2 int_0^t v e^(-2 (r - q) u) du in closed form
        # on each piece; the knots of v must be panel edges of the tables
        r, q = 0.3, 0.05
        chart = dupire_to_heat(TermStructure(r=r, q=q), Curve(KNOTS, KINKED), 2.0)
        assert set(KNOTS) <= set(chart.tau_of_t._edges)
        for t in (0.0, 0.2, 0.4, 0.75, 1.1, 1.6, 2.0):
            ref = 0.5 * piecewise_integrals(t, 2.0, -2.0 * (r - q))[0]
            assert chart.tau_of_t(t) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_unresolvable_variance_is_numerical_error(self):
        # noise far above rounding keeps every panel's tail large: the
        # table stops halving at its panel cap instead of growing without end
        rng = np.random.default_rng(0)
        noisy = lambda t: 0.04 * (1.0 + 1e-9 * rng.standard_normal(np.shape(t)))
        with pytest.raises(NumericalError):
            dupire_to_heat(self.TS, noisy, 1.0)

    def test_fields_vectorize(self):
        ts = TermStructure(r=Curve([0.0, 0.5, 2.0], [0.01, 0.05, 0.02]), q=0.01)
        chart = dupire_to_heat(ts, Curve(KNOTS, KINKED), 2.0)
        assert_fields_vectorize(chart, np.linspace(0.0, 2.0, 17), 95.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigError):
            dupire_to_heat(self.TS, 0.0, 1.0)
        with pytest.raises(ConfigError):
            dupire_to_heat(self.TS, Curve(times=[0.0, 1.0], values=[0.04, -0.01]), 1.0)
        with pytest.raises(ConfigError):
            dupire_to_heat(self.TS, lambda t: 0.04 - 0.05 * math.sqrt(t), 1.0)

    def test_scalar_only_variance_matches_vectorized_twin(self):
        # sqrt rounds alike in math and numpy, so the two curves are equal
        charts = [dupire_to_heat(self.TS, lambda t, f=f: 0.04 * f(1.0 + t), 1.0)
                  for f in (math.sqrt, np.sqrt)]
        for t in (0.2, 0.5, 1.0):
            a, b = [(c.tau_of_t(t), c.x_of_state(t, 95.0), c.multiplier(t)) for c in charts]
            assert a == b
        tau = charts[0].tau_of_t(0.7)
        assert charts[0].t_of_tau(tau) == charts[1].t_of_tau(tau)


class TestBkChart:
    TS = TermStructure(kappa=0.3, theta=0.05, sigma=0.2, s=0.01)
    S = 2.0

    def test_terminal_normalization(self):
        chart = bk_layer_chart(self.TS, 0.0, 1.0, self.S)
        # default constants: heat clock and multiplier are normalized at t = S
        assert chart.tau_of_t(self.S) == 0.0
        assert chart.multiplier(self.S, 0.37) == pytest.approx(1.0, rel=1e-12)
        assert chart.layer_clock is False

    def test_heat_clock_decreasing_and_invertible(self):
        chart = bk_layer_chart(self.TS, 0.0, 1.0, self.S)
        taus = [chart.tau_of_t(t) for t in (0.0, 0.7, 1.4, self.S)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        for t in (0.0, 1e-9, 0.3, 1.1, 1.9, self.S - 1e-9, self.S):
            assert chart.t_of_tau(chart.tau_of_t(t)) == pytest.approx(t, abs=1e-10)
        for tau in (-1e-3, chart.tau_of_t(0.0) * 1.01):
            with pytest.raises(ConfigError):
                chart.t_of_tau(tau)

    def test_spatial_map_roundtrip(self):
        chart = bk_layer_chart(self.TS, 0.1, 0.8, self.S)
        for t in (0.0, 1.0, self.S):
            x = chart.x_of_state(t, -0.4)
            assert chart.state_of_x(t, x) == pytest.approx(-0.4, rel=1e-12)

    def test_kinked_rate_map_matches_piecewise_closed_form(self):
        # kappa = 0: psi = 1, alpha = B = int_S^t b, rho = -sigma^2 int_S^t B,
        # beta = (s + a)(t - S) - sigma^2/2 int_S^t B^2, all piecewise polynomial
        sigma, s, a, z, R = 0.2, 0.01, 0.005, 0.3, 0.04
        ts = TermStructure(theta=0.05, sigma=sigma, s=s)
        b = Curve(KNOTS, KINKED)
        chart = bk_layer_chart(ts, a, b, self.S)
        for t in (0.0, 0.2, 0.4, 0.75, 1.1, 1.6, self.S):
            _, big_b, int_b, int_b2 = piecewise_integrals(t, self.S, 1.0)
            beta = (s + a) * (t - self.S) - 0.5 * sigma**2 * int_b2
            assert chart.x_of_state(t, z) == pytest.approx(z - sigma**2 * int_b, rel=1e-12)
            assert chart.multiplier(t, z) == pytest.approx(math.exp(big_b * z + beta), rel=1e-12)
            assert bk_affine_zcb(ts, a, b, t, self.S, z, R) == pytest.approx(
                math.exp(beta) * math.exp(big_b * R * math.exp(z)), rel=1e-12)

    def test_fields_vectorize(self):
        ts = TermStructure(kappa=Curve([0.0, 1.0, 2.0], [0.2, 0.6, 0.4]), theta=0.03,
                           sigma=lambda t: 0.2 + 0.05 * math.sin(t), s=0.01)
        chart = bk_layer_chart(ts, 0.01, Curve(KNOTS, KINKED), self.S,
                               constants=(1.3, 0.2, 0.1, 0.05, 0.3))
        t = np.linspace(0.0, self.S, 17)
        assert_fields_vectorize(chart, t, 0.4)
        zcb = [bk_affine_zcb(ts, 0.01, 0.9, s, self.S, 0.2, 0.03) for s in t]
        assert np.array_equal(bk_affine_zcb(ts, 0.01, 0.9, t, self.S, 0.2, 0.03), zcb)

    def test_nonpositive_scale_constant_rejected(self):
        with pytest.raises(ConfigError):
            bk_layer_chart(self.TS, 0.0, 1.0, self.S, constants=(0.0, 0, 0, 0, 0))


class TestBkZcb:
    def test_maturity_is_par(self):
        ts = TermStructure(kappa=0.3, theta=0.05, sigma=0.2, s=0.01)
        assert bk_affine_zcb(ts, 0.0, 1.0, 2.0, 2.0, z=0.1) == 1.0

    def test_after_maturity_rejected(self):
        ts = TermStructure()
        with pytest.raises(ConfigError):
            bk_affine_zcb(ts, 0.0, 1.0, 2.5, 2.0, z=0.0)

    def test_degenerate_closed_form(self):
        # kappa = sigma = a = s = 0, b = 1: F = exp(-(S - t) R e^z)
        ts = TermStructure()
        t, S, z, R = 0.5, 2.0, -0.3, 1.0
        got = bk_affine_zcb(ts, 0.0, 1.0, t, S, z=z, R=R)
        assert got == pytest.approx(math.exp(-(S - t) * R * math.exp(z)), rel=1e-10)

    def test_constant_coefficient_closed_form(self):
        # kappa = 0 keeps B(t,S) = b (t - S) in closed form
        kappa, theta, sigma, s, a, b = 0.0, 0.04, 0.15, 0.01, 0.005, 0.9
        ts = TermStructure(kappa=kappa, theta=theta, sigma=sigma, s=s)
        t, S, z, R = 0.4, 1.5, 0.2, 0.8

        big_b = lambda m: b * (m - S)
        log_a, _ = quad(
            lambda m: a + s - 0.5 * big_b(m) * (2 * theta * kappa + big_b(m) * sigma**2),
            S, t)
        ref = math.exp(log_a) * math.exp(big_b(t) * R * math.exp(z))
        got = bk_affine_zcb(ts, a, b, t, S, z=z, R=R)
        assert got == pytest.approx(ref, rel=1e-9)


class TestVerhulst:
    TS = TermStructure(kappa=0.5, theta=0.03, sigma=0.2, s=0.01)

    def make(self, i=1, N=4):
        return verhulst_chart(self.TS, R=0.02, i=i, N=N, L=1.0, horizon=2.0)

    def test_heat_clock_vanishes_at_horizon(self):
        chart = self.make()
        assert chart.tau_of_t(2.0) == 0.0
        assert chart.tau_of_t(0.0) > chart.tau_of_t(1.0) > 0.0

    def test_layer_levels_strictly_ordered(self):
        charts = [self.make(i=i) for i in range(4)]
        for t in (0.0, 1.0, 2.0):
            levels = [c.nu(t) for c in charts]
            assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_initial_multiplier_is_one(self):
        chart = self.make()
        assert chart.multiplier(0.0, 0.6) == pytest.approx(1.0, rel=1e-12)

    def test_maps_invert(self):
        chart = self.make()
        for t in (0.3, 1.2):
            x = chart.x_of_state(t, 0.8)
            assert chart.state_of_x(t, x) == pytest.approx(0.8, rel=1e-12)
        for t in (0.0, 1e-9, 0.3, 1.2, 2.0 - 1e-9, 2.0):
            assert chart.t_of_tau(chart.tau_of_t(t)) == pytest.approx(t, abs=1e-10)
        assert chart.layer_clock is True

    def test_fields_vectorize(self):
        chart = verhulst_chart(self.TS, R=0.02, i=2, N=4, horizon=2.0,
                               L=Curve([0.0, 0.7, 2.0], [1.0, 1.3, 0.9]))
        assert_fields_vectorize(chart, np.linspace(0.0, 2.0, 17), 0.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            verhulst_chart(self.TS, R=0.02, i=4, N=4, L=1.0, horizon=2.0)
        with pytest.raises(ConfigError):
            verhulst_chart(self.TS, R=0.02, i=-1, N=4, L=1.0, horizon=2.0)
        with pytest.raises(ConfigError):
            verhulst_chart(self.TS, R=0.02, i=0, N=4, L=-1.0, horizon=2.0)
        with pytest.raises(ConfigError):
            verhulst_chart(self.TS, R=0.02, i=0, N=4, L=lambda t: 1.0 - math.sqrt(t),
                           horizon=2.0)


class TestDivergentChart:
    def test_identity_coefficient(self):
        chart = nondivergent_to_divergent(lambda x: 1.0, 1.0, 0.0)
        for x in (-1.5, 0.0, 2.0):
            assert chart.z_of_x(x) == pytest.approx(x, abs=1e-12)
            assert chart.sigma_sq_of_z(x) == pytest.approx(1.0, rel=1e-12)

    def test_exponential_closed_form(self):
        # Xi = e^{-a x / 2}: z = c2 + (c1/a)(e^{a x} - 1),
        # x(z) = (1/a) log(1 + a (z - c2) / c1), sigma^2 = c1^2 e^{a x(z)}
        a, c1, c2 = 0.8, 1.3, 0.2
        chart = nondivergent_to_divergent(lambda x: math.exp(-0.5 * a * x), c1, c2)
        for x in (-1.0, 0.0, 0.4, 1.5):
            z_ref = c2 + (c1 / a) * (math.exp(a * x) - 1.0)
            assert chart.z_of_x(x) == pytest.approx(z_ref, rel=1e-12, abs=1e-12)
            assert chart.x_of_z(z_ref) == pytest.approx(x, abs=1e-12)
            assert chart.sigma_sq_of_z(z_ref) == pytest.approx(
                c1 * c1 * math.exp(a * x), rel=1e-10)

    XI_KNOTS = np.linspace(-2.0, 3.0, 11)
    XI_KINKED = [1.0, 1.2, 0.9, 1.1, 1.3, 0.8, 1.0, 1.4, 0.7, 1.1, 1.0]

    def test_sampled_coefficient_roundtrip(self):
        chart = nondivergent_to_divergent(Curve(self.XI_KNOTS, self.XI_KINKED), 0.9, -0.1)
        for x in np.linspace(-1.8, 2.8, 100):
            z = chart.z_of_x(x)
            assert abs(chart.x_of_z(z) - x) <= 1e-12

    def test_sampled_coefficient_matches_piecewise_closed_form(self):
        # on a piece where Xi = alpha + beta x: int dx / Xi^2 = -1 / (beta Xi)
        chart = nondivergent_to_divergent(Curve(self.XI_KNOTS, self.XI_KINKED), 0.9, -0.1)
        pieces = list(zip(self.XI_KNOTS, self.XI_KNOTS[1:], self.XI_KINKED, self.XI_KINKED[1:]))

        def integral(a, b):  # int_a^b Xi^-2, a <= b
            total = 0.0
            for x0, x1, v0, v1 in pieces:
                lo, hi = max(a, x0), min(b, x1)
                if lo < hi:
                    beta = (v1 - v0) / (x1 - x0)
                    xi_at = lambda x: v0 + beta * (x - x0)
                    total += (hi - lo) / v0**2 if beta == 0.0 else \
                        (1.0 / xi_at(lo) - 1.0 / xi_at(hi)) / beta
            return total

        for x in np.linspace(-1.8, 2.8, 100):
            ref = -0.1 + 0.9 * (integral(0.0, x) if x >= 0.0 else -integral(x, 0.0))
            assert chart.z_of_x(x) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("xi", [lambda x: math.exp(-0.4 * x), 1.0,
                                    Curve(XI_KNOTS, XI_KINKED)],
                             ids=["exp", "constant", "sampled"])
    def test_maps_vectorize(self, xi):
        chart = nondivergent_to_divergent(xi, 1.3, 0.1)
        xs = np.linspace(-1.9, 2.9, 23)
        zs = chart.z_of_x(xs)
        for name, fn, args in (("z_of_x", chart.z_of_x, xs), ("x_of_z", chart.x_of_z, zs),
                               ("sigma_sq_of_z", chart.sigma_sq_of_z, zs)):
            array = fn(args)
            scalars = [fn(v) for v in args]
            assert isinstance(array, np.ndarray) and array.shape == args.shape, name
            assert all(isinstance(v, float) for v in scalars), name
            np.testing.assert_allclose(array, scalars, rtol=1e-14, atol=0.0, err_msg=name)

    def test_scalar_only_coefficient_matches_vectorized_twin(self):
        charts = [nondivergent_to_divergent(lambda x, f=f: f(1.0 + x * x), 1.1, 0.3)
                  for f in (math.sqrt, np.sqrt)]
        for x in (-1.2, 0.0, 0.7):
            z = charts[0].z_of_x(x)
            assert z == charts[1].z_of_x(x)
            assert charts[0].x_of_z(z) == charts[1].x_of_z(z)
            assert charts[0].sigma_sq_of_z(z) == charts[1].sigma_sq_of_z(z)

    def test_boundary_images(self):
        chart = nondivergent_to_divergent(lambda x: 1.0, 2.0, 1.0,
                                          boundaries=[-1.0, 0.0, 0.5])
        assert np.allclose(chart.boundary_images, [-1.0, 1.0, 2.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            nondivergent_to_divergent(lambda x: 1.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            nondivergent_to_divergent(lambda x: -1.0, 1.0, 0.0).z_of_x(1.0)
