"""Tests for the Gaver-Stehfest inversion and numeric forward transform."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mlheat.errors import NumericalError
from mlheat.laplace import (
    DEFAULT_ORDER,
    StehfestScheme,
    forward_laplace_numeric,
    invert_laplace,
    stehfest_weights,
)
from mlheat.special_functions import eta_kernel


class TestWeights:
    def test_order_two(self):
        w = stehfest_weights(2).weights
        assert list(w) == [2.0, -2.0]

    def test_identities_all_orders(self):
        # exact-rational identities: weights sum to zero and sum(w_k / k) = 1;
        # the rounded floats satisfy them to well below weight scale
        for m in range(2, 20, 2):
            w = stehfest_weights(m).weights
            scale = np.max(np.abs(w))
            assert abs(math.fsum(w)) <= 1e-12 * scale
            assert abs(math.fsum(wk / k for k, wk in enumerate(w, 1)) - 1.0) <= 1e-12 * scale

    def test_default_order(self):
        assert DEFAULT_ORDER == 16
        assert len(stehfest_weights().weights) == 16

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            stehfest_weights(7)
        with pytest.raises(ValueError):
            stehfest_weights(0)
        with pytest.raises(ValueError):
            stehfest_weights(20)

    def test_cached_weights_are_shared_and_read_only(self):
        first = stehfest_weights(12)
        again = stehfest_weights(12.0)
        assert again.weights is first.weights
        assert np.array_equal(again.weights, first.weights)
        with pytest.raises(ValueError):
            first.weights[0] = 0.0
        assert stehfest_weights(12).weights[0] == again.weights[0]

    def test_nodes(self):
        sch = stehfest_weights(8)
        nodes = sch.nodes(2.0)
        assert np.allclose(nodes, np.arange(1, 9) * math.log(2.0) / 2.0, rtol=1e-15)


class TestInversion:
    def test_one_over_lambda(self):
        # the weight identity Sigma w_k / k = 1 makes the constant function
        # exact in exact arithmetic; in floats the m=16 weights reach 3.6e9,
        # so the rounding floor is about |w|_max * eps ~ 1e-7
        for T in (0.1, 1.0, 10.0):
            v = invert_laplace(lambda lam: 1.0 / lam, T)
            assert abs(v - 1.0) <= 1e-6
        # a low order has small weights and is exact in floats as well
        assert invert_laplace(lambda lam: 1.0 / lam, 1.0, stehfest_weights(2)) == 1.0

    def test_one_over_lambda_squared(self):
        # inverse is f(t) = t; the m=16 scheme carries an intrinsic
        # truncation error of about 4.3e-8 relative (the Sigma w_k/k^2
        # identity is not exact), so that is the honest bar here
        v = invert_laplace(lambda lam: 1.0 / lam**2, 2.0)
        assert abs(v - 2.0) / 2.0 <= 1e-6

    def test_decaying_exponential(self):
        v = invert_laplace(lambda lam: 1.0 / (lam + 1.0), 1.0)
        assert abs(v - math.exp(-1.0)) / math.exp(-1.0) <= 1e-6

    def test_accuracy_not_degrading_with_order(self):
        exact = math.exp(-1.0)
        errs = {}
        for m in (8, 16):
            v = invert_laplace(lambda lam: 1.0 / (lam + 1.0), 1.0, stehfest_weights(m))
            errs[m] = abs(v - exact)
        assert errs[16] <= errs[8]

    def test_non_finite_transform_reported(self):
        with pytest.raises(NumericalError):
            invert_laplace(lambda lam: float("nan"), 1.0)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            invert_laplace(lambda lam: 1.0 / lam, 0.0)


class TestForwardTransform:
    def test_constant(self):
        assert abs(forward_laplace_numeric(lambda t: 1.0, 3.0) - 1.0 / 3.0) <= 1e-10

    def test_sqrt_singularity(self):
        # L[1/sqrt(pi t)] = 1/sqrt(lambda)
        v = forward_laplace_numeric(lambda t: 1.0 / math.sqrt(math.pi * t), 4.0)
        assert abs(v - 0.5) <= 1e-8

    def test_eta_even_closed_form(self):
        l, sigma, lam = 1.0, 0.5, 10.0
        v = forward_laplace_numeric(lambda t: eta_kernel(t, l, sigma, "even"), lam)
        s = math.sqrt(lam)
        exact = math.cosh(2.0 * s) / math.sinh(2.0 * s) / (sigma * s)
        assert abs(v - exact) <= 1e-8

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            forward_laplace_numeric(lambda t: 1.0, 0.0)
        with pytest.raises(ValueError):
            forward_laplace_numeric(lambda t: 1.0, 1.0, t_max=-1.0)


class TestRoundTrip:
    def test_forward_then_invert(self):
        # numerically transform a smooth function, then invert; the
        # Stehfest truncation error dominates the budget
        cases = [
            (lambda t: math.exp(-t), lambda T: math.exp(-T)),
            (lambda t: t, lambda T: T),
        ]
        for f, exact in cases:
            for T in (0.1, 1.0):
                v = invert_laplace(lambda lam: forward_laplace_numeric(f, lam), T)
                assert abs(v - exact(T)) <= 1e-5 * max(1.0, abs(exact(T)))
