"""Tests for the Jacobi theta functions and layer image kernels."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlheat import _workspace
from mlheat.analytic import StripProblem, strip_green
from mlheat.errors import ConfigError
from mlheat.special_functions import (_folded_kernels, _image_sum, _theta_sum, eta_kernel,
                                      folded_kernel,
                                      theta3, theta3_dz, theta3_dzz)


def _theta3_image(z, q):
    # Poisson-dual (image/Gaussian) representation of theta3, used as an
    # independent oracle: with q = exp(-pi^2 s) and z = pi a / 2,
    # theta3(z, q) = (1/sqrt(pi s)) sum_n exp(-(a + 2n)^2 / (4 s))
    s = -math.log(q) / math.pi**2
    a = 2.0 * z / math.pi
    total = 0.0
    for n in range(-200, 201):
        total += math.exp(-((a + 2.0 * n) ** 2) / (4.0 * s))
    return total / math.sqrt(math.pi * s)


# fdlibm's pi/2 in two parts: pio2_1, its first 33 bits, and pio2_1t, the rest
_PIO2_1, _PIO2_1T = 1.57079632673412561417e+00, 6.07710050650619224932e-11


def _theta3_image_derivs(z, q):
    # theta3 and its first two z-derivatives from the image form above,
    # with Sum |term| as the scale of each sum's rounding error.  z first
    # sheds its nearest multiple of the period pi, taken in two parts, so
    # that x = 2 z / pi carries no rounding of pi times z
    n = round(z / math.pi)
    z = (z - n * (2.0 * _PIO2_1)) - n * (2.0 * _PIO2_1T)
    s = -math.log(q) / math.pi**2
    x = 2.0 * z / math.pi + 2.0 * np.arange(-200, 201)
    g = np.exp(-(x * x) / (4.0 * s)) / math.sqrt(math.pi * s)
    terms = (g, (2.0 / math.pi) * (-x / (2.0 * s)) * g,
             (2.0 / math.pi) ** 2 * (x * x / (4.0 * s * s) - 1.0 / (2.0 * s)) * g)
    return [(float(np.sum(t)), float(np.sum(np.abs(t)))) for t in terms]


class TestTheta3:
    def test_q_zero_is_one(self):
        assert theta3(0.7, 0.0) == 1.0
        assert theta3(0.0, 0.0) == 1.0

    def test_point_values(self):
        # truncated series by hand: 1 + 2 sum q^(n^2) cos(2nz)
        assert abs(theta3(math.pi / 2.0, 0.1) - 0.8002000) < 1e-6
        assert abs(theta3(0.0, 0.1) - 1.2002000) < 1e-6

    def test_even_and_periodic(self):
        zs = np.linspace(-3.0, 3.0, 41)
        for q in (0.05, 0.3, 0.9):
            v = theta3(zs, q)
            assert np.max(np.abs(v - theta3(-zs, q))) <= 1e-14
            assert np.max(np.abs(v - theta3(zs + 2.0 * math.pi, q))) <= 1e-13

    def test_poisson_duality(self):
        # series form vs Gaussian-image form across the whole nome range
        for q in np.linspace(0.01, 0.99, 50):
            for z in (0.0, 0.3, 1.1, math.pi / 2.0):
                a = theta3(z, q)
                b = _theta3_image(z, q)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_array_arguments_broadcast(self):
        zs = np.linspace(0.0, 1.0, 5)
        qs = np.array([0.1, 0.5])
        v = theta3(zs[:, None], qs[None, :])
        assert v.shape == (5, 2)
        for i, z in enumerate(zs):
            for j, q in enumerate(qs):
                assert v[i, j] == pytest.approx(theta3(float(z), float(q)), rel=1e-14)

    @pytest.mark.parametrize("q", [0.995, 0.9999])
    @pytest.mark.parametrize("z", [
        3.134415430813835, -3.134415430813835, math.pi / 2, -math.pi / 2,
        math.pi / 2 + 1e-3, -math.pi / 2 - 1e-3, math.pi, -math.pi,
        math.pi - 0.007, -math.pi + 0.007, math.pi + 0.0071])
    def test_matches_mpmath_near_unit_nome(self, z, q):
        # the period fold subtracts n pi, not n fl(pi): at z = 3.1344..., just
        # past a zero of theta3'' at q = 0.9999, fl(pi)'s rounding alone put
        # theta3'' 7.3e-8 off, and at z = pi theta3' 434 times the bound
        for deriv, f in enumerate((theta3, theta3_dz, theta3_dzz)):
            with mpmath.workdps(40):
                ref = float(mpmath.jtheta(3, mpmath.mpf(z), mpmath.mpf(q), deriv))
            assert abs(f(z, q) - ref) <= 1e-12 * max(1.0, abs(ref)), deriv

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_is_config_error(self, z):
        for f in (theta3, theta3_dz, theta3_dzz):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="offset a must be finite"):
                    f(z, 0.5)

    def test_invalid_nome(self):
        with pytest.raises(ValueError):
            theta3(0.0, 1.0)
        with pytest.raises(ValueError):
            theta3(0.0, -0.1)
        with pytest.raises(ValueError):
            theta3(0.0, float("nan"))
        with pytest.raises(ValueError):
            theta3(float("inf"), 0.5)


class TestTheta3Derivatives:
    def test_dz_point_values(self):
        assert theta3_dz(0.0, 0.5) == 0.0
        assert abs(theta3_dz(math.pi / 2.0, 0.5)) <= 1e-14
        assert abs(theta3_dz(math.pi / 4.0, 0.1) - (-0.4)) < 1e-6

    def test_dz_matches_finite_difference(self):
        h = 1e-5
        for q in (0.1, 0.5, 0.9):
            for z in (0.2, 0.9, 2.0):
                fd = (theta3(z + h, q) - theta3(z - h, q)) / (2.0 * h)
                assert abs(theta3_dz(z, q) - fd) <= 1e-8 * max(1.0, abs(fd))

    def test_dzz_point_values(self):
        assert theta3_dzz(0.3, 0.0) == 0.0
        assert abs(theta3_dzz(0.0, 0.1) - (-0.8032)) < 1e-4
        assert abs(theta3_dzz(math.pi / 2.0, 0.1) - 0.7968) < 1e-4

    def test_dzz_matches_finite_difference_of_dz(self):
        h = 1e-5
        for q in (0.1, 0.6):
            for z in (0.1, 1.3):
                fd = (theta3_dz(z + h, q) - theta3_dz(z - h, q)) / (2.0 * h)
                assert abs(theta3_dzz(z, q) - fd) <= 1e-7

    def test_dz_odd(self):
        zs = np.linspace(0.1, 2.0, 9)
        assert np.max(np.abs(theta3_dz(zs, 0.4) + theta3_dz(-zs, 0.4))) <= 1e-14


class TestEtaKernel:
    def test_small_dt_even_limit(self):
        # as dt -> 0 only the n=0 image survives: eta_even ~ 1/(sigma sqrt(pi dt))
        dt, sigma = 1e-6, 0.5
        v = eta_kernel(dt, 1.0, sigma, "even")
        assert v * sigma * math.sqrt(math.pi * dt) == pytest.approx(1.0, rel=1e-12)

    def test_small_dt_odd_vanishes(self):
        assert eta_kernel(1e-6, 1.0, 0.5, "odd") == 0.0

    def test_large_dt_limits(self):
        # nome -> 0: theta3(0, q) and theta3(pi/2, q) both -> 1, so both
        # kernels approach the equilibrium density 1/l
        assert eta_kernel(50.0, 1.0, 0.5, "even") == pytest.approx(1.0, rel=1e-12)
        assert eta_kernel(50.0, 1.0, 0.5, "odd") == pytest.approx(1.0, rel=1e-12)

    def test_image_theta_agreement_across_switch(self):
        # evaluate both representations explicitly on both sides of the
        # regime switch and compare against eta_kernel
        l, sigma = 1.0, 0.5
        for dt in np.linspace(0.3, 3.0, 25):
            v = eta_kernel(dt, l, sigma, "even")
            img = sum(
                math.exp(-((2.0 * n * l) ** 2) / (4.0 * sigma**2 * dt))
                for n in range(-60, 61)
            ) / (sigma * math.sqrt(math.pi * dt))
            q = math.exp(-math.pi**2 * sigma**2 * dt / l**2)
            tht = theta3(0.0, q) / l
            assert v == pytest.approx(img, rel=1e-12)
            assert v == pytest.approx(tht, rel=1e-12)

    def test_odd_agreement_across_switch(self):
        l, sigma = 0.7, 0.9
        for dt in np.linspace(0.1, 2.0, 25):
            v = eta_kernel(dt, l, sigma, "odd")
            img = sum(
                math.exp(-(((2.0 * n + 1.0) * l) ** 2) / (4.0 * sigma**2 * dt))
                for n in range(-60, 60)
            ) / (sigma * math.sqrt(math.pi * dt))
            assert v == pytest.approx(img, rel=1e-11, abs=1e-300)

    def test_validation(self):
        with pytest.raises(ValueError):
            eta_kernel(0.0, 1.0, 0.5, "even")
        with pytest.raises(ValueError):
            eta_kernel(1.0, -1.0, 0.5, "even")
        with pytest.raises(ValueError):
            eta_kernel(1.0, 1.0, 0.0, "even")
        with pytest.raises(ValueError):
            eta_kernel(1.0, 1.0, 0.5, "mixed")


class TestFoldedKernel:
    """Properties of the shared image/theta evaluator."""

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(5e-3, 5.0), l=st.floats(0.05, 20.0), frac=st.floats(-1.0, 1.0),
           deriv=st.sampled_from([0, 1, 2]))
    def test_branches_agree(self, ratio, l, frac, deriv):
        # either series alone converges across the switch at delta / l^2 = 1/pi;
        # K_d(delta, a, l) = l^-(d+1) K_d(delta / l^2, a / l, 1) sets the scale
        delta, a = ratio * l * l, frac * l
        img = _image_sum(delta, a, l, deriv)
        tht = _theta_sum(delta, a, l, deriv)
        assert abs(img - tht) <= 1e-10 * max(abs(img), l ** -(deriv + 1))

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(1e-3, 10.0), l=st.floats(0.05, 20.0), frac=st.floats(-5.0, 5.0),
           deriv=st.sampled_from([0, 1, 2]))
    def test_period_and_parity(self, ratio, l, frac, deriv):
        delta, a = ratio * l * l, frac * l
        v = folded_kernel(delta, a, l, deriv)
        scale = max(abs(v), l ** -(deriv + 1))
        assert abs(folded_kernel(delta, a + 2.0 * l, l, deriv) - v) <= 1e-9 * scale
        sign = -1.0 if deriv == 1 else 1.0
        assert abs(folded_kernel(delta, -a, l, deriv) - sign * v) <= 1e-12 * scale
        if deriv == 1:
            # odd and 2l-periodic, K' vanishes at 0 and +-l: the coupling
            # kernels of a fixed-wall Volterra march
            assert folded_kernel(delta, 0.0, l, 1) == 0.0
            for at in (-l, l):
                assert abs(folded_kernel(delta, at, l, 1)) <= 1e-14 * l ** -2

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-4.0, 4.0), q=st.sampled_from([0.995, 0.9999]))
    def test_derivatives_match_image_oracle_near_unit_nome(self, z, q):
        oracle = _theta3_image_derivs(z, q)
        for f, (ref, scale) in zip((theta3, theta3_dz, theta3_dzz), oracle):
            assert abs(f(z, q) - ref) <= 1e-12 * max(1.0, scale)

    def test_array_matches_scalar_across_branches(self):
        deltas = np.geomspace(1e-3, 3.0, 17)[:, None]
        a = np.linspace(-2.5, 2.5, 11)[None, :]
        for deriv in (0, 1, 2):
            v = folded_kernel(deltas, a, 1.3, deriv)
            assert v.shape == (17, 11)
            for i, j in ((0, 3), (8, 5), (16, 10)):
                ref = folded_kernel(float(deltas[i, 0]), float(a[0, j]), 1.3, deriv)
                assert v[i, j] == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_point_alone_equals_its_array_bitwise(self):
        # every order's power, (-2 delta)^d or w^d, is taken by one rule for
        # a 0-d and an n-d array, so a point asked alone keeps the array's bits
        rng = np.random.default_rng(20261020)
        delta = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), 1000))
        a = rng.uniform(-3.0, 3.0, 1000)
        l = rng.uniform(0.2, 2.0, 1000)
        for deriv in (0, 1, 2):
            v = folded_kernel(delta, a, l, deriv)
            alone = [folded_kernel(*p, deriv) for p in zip(delta.tolist(), a.tolist(), l.tolist())]
            assert v.tobytes() == np.array(alone).tobytes(), deriv
        z, q = rng.uniform(-3.0, 3.0, 1000), rng.uniform(0.0, 0.99, 1000)
        alone = [theta3_dzz(*p) for p in zip(z.tolist(), q.tolist())]
        assert theta3_dzz(z, q).tobytes() == np.array(alone).tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            folded_kernel(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            folded_kernel(float("nan"), 0.1, 1.0)
        with pytest.raises(ValueError):
            folded_kernel(0.1, 0.1, 1.0, deriv=3)
        # the width must be finite and positive and a finite: a negative
        # width would flip the sign of the theta branch, and the image sum
        # needs |a| <= l after folding
        for delta, a, l in [
                (1.0, 0.3, -1.0), (0.01, 0.3, -1.0), (0.01, 0.3, 0.0),
                (0.01, 0.3, math.nan), (0.01, 0.3, math.inf),
                (0.01, math.nan, 1.0), (0.01, math.inf, 1.0), (1.0, -math.inf, 1.0),
                ([0.01, 1.0], 0.3, [1.0, -1.0]), ([0.01, 1.0], [0.3, math.nan], 1.0)]:
            with pytest.raises(ConfigError):
                folded_kernel(delta, a, l)


def _image_oracle(delta, a, l, deriv):
    # the d-th a-derivative of the image sum, one math.exp per image
    total = 0.0
    for n in range(-200, 201):
        x = a + 2.0 * n * l
        g = math.exp(-x * x / (4.0 * delta))
        if deriv == 0:
            total += g
        elif deriv == 1:
            total += -x / (2.0 * delta) * g
        else:
            total += (x * x / (4.0 * delta * delta) - 1.0 / (2.0 * delta)) * g
    return total / math.sqrt(math.pi * delta)


class TestImageSum:
    """The image form against a direct sum, on the range folded_kernel gives it."""

    @settings(max_examples=300, deadline=None)
    @given(l=st.floats(0.05, 20.0),
           points=st.lists(st.tuples(st.floats(-8.0, math.log10(1.0 / math.pi)),
                                     st.floats(-1.0, 1.0)), min_size=1, max_size=6),
           deriv=st.sampled_from([0, 1, 2]))
    # deep tails: R+- = exp(-l (l +- a) / delta) underflow to 0 while g does
    # not, or the n = -1 image is as large as g (a = l)
    @example(l=1.0, points=[(-8.0, 1e-5), (-8.0, -1.0), (-3.0, 1.0)], deriv=0)
    @example(l=0.3, points=[(-8.0, 1e-5), (-2.5, -1.0), (-2.5, 1.0), (-0.6, 0.0)], deriv=1)
    @example(l=7.0, points=[(-8.0, 0.0), (-3.0, 1.0), (-1.0, -0.999)], deriv=2)
    def test_matches_direct_sum_and_is_exactly_symmetric(self, l, points, deriv):
        ratio = np.minimum(10.0 ** np.array([e for e, _ in points]),
                           np.nextafter(1.0 / math.pi, 0.0))
        delta = ratio * l * l
        a = np.array([f for _, f in points]) * l
        v = _image_sum(delta, a, l, deriv)
        for d, x, got in zip(delta, a, v):
            peak = (2.0 * d) ** (-deriv / 2) / math.sqrt(math.pi * d)
            assert abs(got - _image_oracle(d, x, l, deriv)) <= 1e-14 * peak
        # the two sides of a are built alike, so the parity is bitwise
        assert np.array_equal(_image_sum(delta, -a, l, deriv), (-1) ** deriv * v)


class TestKernelPass:
    """The theta recurrence and the multi-order pass behind folded_kernel."""

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(0.3184, 5.0), l=st.floats(0.05, 20.0), frac=st.floats(-3.0, 3.0),
           deriv=st.sampled_from([0, 1, 2]))
    def test_theta_branch_matches_mpmath(self, ratio, l, frac, deriv):
        # delta / l^2 >= 1/pi, nome q <= exp(-pi): the branch whose terms come
        # by recurrence, against 30-digit jtheta through
        # K_d(delta, a, l) = (pi / 2l)^d theta3^(d)(pi a / 2l, q) / l
        delta, a = ratio * l * l, frac * l
        with mpmath.workdps(30):
            width = mpmath.mpf(l)
            q = mpmath.exp(-mpmath.pi ** 2 * mpmath.mpf(delta) / width ** 2)
            z = mpmath.pi * mpmath.mpf(a) / (2 * width)
            ref = float((mpmath.pi / (2 * width)) ** deriv * mpmath.jtheta(3, z, q, deriv) / width)
        v = folded_kernel(delta, a, l, deriv)
        assert abs(v - ref) <= 1e-14 * max(abs(ref), l ** -(deriv + 1))

    @settings(max_examples=100, deadline=None)
    @given(l=st.floats(0.05, 20.0),
           points=st.lists(st.tuples(st.one_of(st.floats(-4.0, 1.0), st.just(math.inf)),
                                     st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    # across the switch at delta / l^2 = 1/pi, with the l -> 0 limit
    @example(l=1.0, points=[(math.log10(1.0 / math.pi) - 1e-12, 0.2),
                            (math.log10(1.0 / math.pi) + 1e-12, -0.7), (math.inf, 0.3)])
    def test_one_pass_equals_single_orders(self, l, points):
        # log10(delta / l^2) on both sides of the switch, mixed in one call
        delta = 10.0 ** np.array([e for e, _ in points]) * l * l
        a = np.array([f for _, f in points]) * l
        for d, v in enumerate(_folded_kernels(delta, a, l, (0, 1, 2))):
            single = folded_kernel(delta, a, l, d)
            scale = np.maximum(np.abs(single), l ** -(d + 1.0))
            assert np.all(np.abs(v - single) <= 2.0 * np.spacing(scale))


class TestWorkspace:
    """The kernel entries take their scratch from the per-thread workspace.

    Each releases it on return and on error and returns fresh arrays, so
    a call is bit-identical whatever ran before it and leaves earlier
    results untouched.
    """

    @staticmethod
    def outputs(seed, n):
        """Every kernel entry on n random arguments on both sides of the
        image/theta switch, and the strip Green's function on both of its
        paths."""
        rng = np.random.default_rng(seed)
        delta, l = 10.0 ** rng.uniform(-3.0, 1.0, n), rng.uniform(0.2, 2.0, n)
        a = rng.uniform(-3.0, 3.0, (3, n))
        z, q = rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 0.999, n)
        out = {f"kernel{d}": folded_kernel(delta, a, l, d) for d in (0, 1, 2)}
        out.update((f.__name__, f(z, q)) for f in (theta3, theta3_dz, theta3_dzz))
        out["eta"] = np.array([eta_kernel(dt, 0.7, 0.5, parity)
                               for dt in delta[:20] for parity in ("even", "odd")])
        xs = np.linspace(-1.0, 2.0, n)
        for T in (0.05, 3.0):
            out[f"strip{T}"] = strip_green(StripProblem(-1.0, 2.0, 0.8, 0.3, T), xs)
        return out

    @staticmethod
    def assert_released():
        ws = _workspace._local.ws
        assert ws.top == 0 and ws.depth == 0

    @staticmethod
    def assert_same(got, want):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_calls_do_not_see_each_other(self):
        first = self.outputs(1, 3000)
        first_kept = {k: v.copy() for k, v in first.items()}
        other = self.outputs(2, 700)
        other_kept = {k: v.copy() for k, v in other.items()}
        self.assert_same(self.outputs(1, 3000), first_kept)
        self.assert_same(first, first_kept)
        self.assert_released()
        with pytest.raises(ConfigError, match="delta must be positive"):
            folded_kernel(np.array([0.1, 0.0]), 0.3, 1.0)
        self.assert_released()
        with pytest.raises(ConfigError, match="outside the strip"):
            strip_green(StripProblem(-1.0, 2.0, 0.8, 0.3, 1.0), np.array([0.0, 3.0]))
        self.assert_released()
        self.assert_same(self.outputs(1, 3000), first_kept)
        self.assert_same(first, first_kept)
        self.assert_same(other, other_kept)

    def test_threads_match_the_serial_calls(self):
        sizes = ((1, 3000), (2, 40), (3, 1500), (4, 700))
        serial = [self.outputs(*size) for size in sizes]

        def evaluate_many(size):
            return [self.outputs(*size) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-call as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(evaluate_many, sizes, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for want, runs in zip(serial, threaded):
            for got in runs:
                self.assert_same(got, want)
