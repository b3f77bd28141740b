"""Tests for the closed-form constant-coefficient strip Green's function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlheat.analytic import StripProblem, strip_green
from mlheat.errors import ConfigError
from mlheat.fd import FdGrid, fd_solve
from mlheat.layered import GreensProblem, LayeredMedium


def table1_problem(x0=0.0):
    return StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=x0, T=1.0)


class TestStripGreen:
    def test_boundary_values_are_zero(self):
        p = table1_problem(0.3)
        assert strip_green(p, -1.0) == pytest.approx(0.0, abs=1e-15)
        assert strip_green(p, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_center_point_value(self):
        # independent image-series evaluation at x = x0 = 0 gives ~0.5436
        v = strip_green(table1_problem(0.0), 0.0)
        assert abs(v - 0.5436) < 1e-4

    def test_source_field_symmetry(self):
        # u(T; x, x0) = u(T; x0, x)
        a = strip_green(table1_problem(-0.2), 0.3)
        b = strip_green(table1_problem(0.3), -0.2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_outside_strip_rejected(self):
        p = table1_problem(0.0)
        with pytest.raises(ValueError):
            strip_green(p, 1.5)
        with pytest.raises(ValueError):
            StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=2.0, T=1.0)

    def test_nan_point_rejected(self):
        with pytest.raises(ConfigError, match="outside the strip"):
            strip_green(table1_problem(0.0), [math.nan])

    def test_empty_points(self):
        assert strip_green(table1_problem(0.0), []).shape == (0,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StripProblem(y0=1.0, yN=-1.0, sigma=0.5, x0=0.0, T=1.0)
        with pytest.raises(ValueError):
            StripProblem(y0=-1.0, yN=1.0, sigma=-0.5, x0=0.0, T=1.0)
        with pytest.raises(ValueError):
            StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=0.0, T=0.0)


class TestShortTime:
    @settings(max_examples=100, deadline=None)
    @given(x0=st.floats(-0.9, 0.9), offset=st.floats(-4.0, 4.0))
    def test_free_space_gaussian_limit(self, x0, offset):
        # at T = 1e-6 the walls are ~1000 widths away: u is the free Gaussian
        sigma, T = 0.5, 1e-6
        width = sigma * math.sqrt(2.0 * T)
        x = x0 + offset * width
        u = strip_green(StripProblem(y0=-1.0, yN=1.0, sigma=sigma, x0=x0, T=T), x)
        free = math.exp(-((x - x0) ** 2) / (4.0 * sigma**2 * T)) / math.sqrt(4.0 * math.pi * sigma**2 * T)
        assert u == pytest.approx(free, rel=1e-12)

    def test_matches_sine_series(self):
        # u = (2/l) sum_n exp(-sigma^2 k_n^2 T) sin(k_n (x0 - y0)) sin(k_n (x - y0)),
        # k_n = n pi / l, independent of the image/theta forms
        y0, yN, sigma, x0 = -1.0, 1.0, 0.5, 0.1
        xs = np.linspace(y0, yN, 801)
        for T in (1e-3, 5e-3, 1e-2):
            l = yN - y0
            k = np.arange(1, 801) * math.pi / l
            w = np.exp(-(sigma**2 * T) * k * k) * np.sin(k * (x0 - y0))
            exact = (2.0 / l) * (np.sin(np.outer(xs - y0, k)) @ w)
            u = strip_green(StripProblem(y0=y0, yN=yN, sigma=sigma, x0=x0, T=T), xs)
            assert np.max(np.abs(u - exact)) <= 1e-12 * np.max(exact)


class TestLongTime:
    def test_decayed_profile_keeps_full_precision(self):
        # strip [0, 3], sigma 1.3, T 5: the theta branch, where the profile
        # has decayed ~1e-4-fold; a difference of two kernels of size ~1/l
        # kept only ~1e-12 of the peak here.  The reference is the sine
        # series term by term in plain floats, summed exactly by fsum
        y0, yN, sigma, x0, T = 0.0, 3.0, 1.3, 1.1, 5.0
        l = yN - y0
        xs = np.linspace(y0, yN, 301)
        exact = np.array([2.0 / l * math.fsum(
            math.exp(-(n * math.pi * sigma / l) ** 2 * T) * math.sin(n * math.pi * (x0 - y0) / l)
            * math.sin(n * math.pi * (x - y0) / l) for n in range(1, 40)) for x in xs])
        u = strip_green(StripProblem(y0=y0, yN=yN, sigma=sigma, x0=x0, T=T), xs)
        assert np.max(np.abs(u - exact)) <= 1e-14 * np.max(exact)


class TestAgainstFineFd:
    def test_matches_fine_finite_differences(self):
        # a 401 x 400 Crank-Nicolson solve agrees to 0.2% of the peak
        p = table1_problem(0.05)
        med = LayeredMedium.uniform(-1.0, 1.0, np.array([0.5]))
        prob = GreensProblem(medium=med, x0=0.05, T=1.0)
        grid = FdGrid.for_problem(prob, 401, 400)
        fd = fd_solve(prob, grid)
        exact = np.array([strip_green(p, x) for x in grid.xs])
        peak = exact.max()
        assert np.max(np.abs(fd.values - exact)) <= 0.002 * peak


class TestConservation:
    def test_short_time_mass(self):
        # for T -> 0 almost no mass has left through the boundaries
        p = StripProblem(y0=-1.0, yN=1.0, sigma=0.5, x0=0.1, T=1e-4)
        xs = np.linspace(-1.0, 1.0, 2001)
        u = np.array([strip_green(p, x) for x in xs])
        mass = np.trapezoid(u, xs)
        assert 0.999 <= mass <= 1.0 + 1e-9

    def test_nonnegative(self):
        p = table1_problem(0.3)
        xs = np.linspace(-1.0, 1.0, 201)
        u = np.array([strip_green(p, x) for x in xs])
        assert np.min(u) >= -1e-14
