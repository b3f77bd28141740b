"""Acceptance gate: ten end-to-end criteria, one test each.

Every test prints a single ``criterion N: PASS/FAIL`` line and then
asserts; the verdicts are also echoed in the terminal summary (see
conftest.py) so they are visible for passing tests despite capture.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from mlheat.analytic import StripProblem, strip_green
from mlheat.fd import FdGrid, fd_solve
from mlheat.laplace import forward_laplace_numeric, invert_laplace, stehfest_weights
from mlheat.layered import GreensProblem, LayeredMedium, greens_function
from mlheat.special_functions import _image_sum, _theta_sum, eta_kernel
from mlheat.transforms import (TermStructure, bk_affine_zcb, dupire_to_heat,
                               nondivergent_to_divergent, verhulst_chart)
from mlheat.volterra import (GitLayerProblem, _gradient_residual,
                             solve_volterra_single_layer)


import conftest


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.verdicts.append((num, line))
    return line


def uniform_problem(y0, yN, sigma, x0, T, layers):
    medium = LayeredMedium.uniform(y0, yN, np.full(layers, sigma))
    return GreensProblem(medium=medium, x0=x0, T=T)


SCHEME = stehfest_weights(16)


def test_criterion_1_uniform_medium_accuracy_and_speed():
    # uniform strip solved as 20 layers vs the closed-form kernel
    prob = uniform_problem(-1.0, 1.0, 0.5, 0.05, 1.0, 20)
    xs = np.linspace(-1.0, 1.0, 101)
    t0 = time.perf_counter()
    fld = greens_function(prob, scheme=SCHEME, xs=xs)
    elapsed = time.perf_counter() - t0
    exact = strip_green(StripProblem(-1.0, 1.0, 0.5, 0.05, 1.0), xs)
    err = np.max(np.abs(fld.values - exact)) / np.max(np.abs(exact))
    ok = err <= 5e-3 and elapsed < 1.0
    line = report(1, ok, f"max rel err {err:.2e} vs 5e-3, solve {elapsed * 1e3:.1f} ms")
    assert ok, line


def test_criterion_2_fd_comparison_accuracy_and_speed():
    prob = uniform_problem(-1.0, 1.0, 0.5, 0.05, 1.0, 20)
    grid = FdGrid.for_problem(prob, 41, 40)
    exact = strip_green(StripProblem(-1.0, 1.0, 0.5, 0.05, 1.0), grid.xs)

    # time the ML solve on its natural grid (the layer boundaries fully
    # determine the field); accuracy is compared on the FD nodes below
    natural = np.asarray(prob.medium.boundaries)
    ml_time = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        greens_function(prob, scheme=SCHEME, xs=natural)
        ml_time = min(ml_time, time.perf_counter() - t0)
    ml = greens_function(prob, scheme=SCHEME, xs=grid.xs)
    fd_time = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fd = fd_solve(prob, grid)
        fd_time = min(fd_time, time.perf_counter() - t0)

    ml_err = np.max(np.abs(ml.values - exact))
    fd_err = np.max(np.abs(fd.values - exact))
    speedup = fd_time / ml_time
    ok = fd_err > ml_err and speedup >= 5.0
    line = report(2, ok, f"fd err {fd_err:.2e} vs ml err {ml_err:.2e}, "
                         f"speedup {speedup:.1f}x vs 5x")
    assert ok, line


def test_criterion_3_small_time_regime():
    prob = uniform_problem(-1.0, 1.0, 0.3, 0.025, 0.5, 40)
    xs = np.linspace(-1.0, 1.0, 101)
    fld = greens_function(prob, scheme=SCHEME, xs=xs)
    exact = strip_green(StripProblem(-1.0, 1.0, 0.3, 0.025, 0.5), xs)
    ml_rel = np.max(np.abs(fld.values - exact)) / np.max(np.abs(exact))

    grid = FdGrid.for_problem(prob, 41, 40)
    fd = fd_solve(prob, grid)
    exact_g = strip_green(StripProblem(-1.0, 1.0, 0.3, 0.025, 0.5), grid.xs)
    ml_g = greens_function(prob, scheme=SCHEME, xs=grid.xs)
    fd_err = np.max(np.abs(fd.values - exact_g))
    ml_err = np.max(np.abs(ml_g.values - exact_g))
    ok = ml_rel <= 5e-3 and fd_err >= 2.0 * ml_err
    line = report(3, ok, f"ml rel {ml_rel:.2e} vs 5e-3, fd/ml err ratio "
                         f"{fd_err / ml_err:.1f} vs 2")
    assert ok, line


def _decaying_medium_run(layers, n_x, m_t):
    boundaries = np.linspace(-1.0, 4.0, layers + 1)
    sigmas = np.exp(-np.arange(1, layers + 1) / layers)
    prob = GreensProblem(medium=LayeredMedium(boundaries=boundaries, sigmas=sigmas),
                         x0=1.54, T=2.0)
    grid = FdGrid.for_problem(prob, n_x, m_t)
    fd = fd_solve(prob, grid)
    ml = greens_function(prob, scheme=SCHEME, xs=grid.xs)
    rel = 100.0 * (fd.values - ml.values) / np.max(np.abs(ml.values))
    return grid.xs, rel


def test_criterion_4_decaying_coefficient_fd_drift():
    xs, rel = _decaying_medium_run(50, 101, 100)
    right_q = np.max(np.abs(rel[xs >= 2.75]))
    xs, rel = _decaying_medium_run(200, 201, 150)
    mid = np.max(np.abs(rel[(xs >= 0.5) & (xs <= 2.5)]))
    ok = right_q >= 8.0 and mid <= 1.0
    line = report(4, ok, f"coarse right-quartile {right_q:.1f}% vs >= 8%, "
                         f"refined mid-domain {mid:.2f}% vs <= 1%")
    assert ok, line


def test_criterion_5_inversion_oracles():
    worst = {"const": 0.0, "ramp": 0.0, "exp": 0.0}
    for T in (0.1, 1.0, 10.0):
        worst["const"] = max(worst["const"],
                             abs(invert_laplace(lambda lam: 1.0 / lam, T, SCHEME) - 1.0))
        got = invert_laplace(lambda lam: 1.0 / lam**2, T, SCHEME)
        worst["ramp"] = max(worst["ramp"], abs(got - T) / T)
        got = invert_laplace(lambda lam: 1.0 / (lam + 1.0), T, SCHEME)
        worst["exp"] = max(worst["exp"], abs(got - math.exp(-T)) / math.exp(-T))
    ok = worst["const"] <= 1e-12 and worst["ramp"] <= 1e-10 and worst["exp"] <= 1e-6
    line = report(5, ok, f"const {worst['const']:.1e} vs 1e-12, "
                         f"ramp {worst['ramp']:.1e} vs 1e-10, "
                         f"decay {worst['exp']:.1e} vs 1e-6")
    assert ok, line


def _image_gradient(t, a, l, sigma, n=40):
    # spatial gradient of the folded heat kernel at a boundary, as an
    # image sum: -sum_n (a + 2nl) exp(-(a+2nl)^2 / 4 sigma^2 t) / (2 sigma^3 sqrt(pi t^3))
    ns = np.arange(-n, n + 1)
    c = a + 2.0 * ns * l
    return float(np.sum(-c / (2.0 * sigma**3 * math.sqrt(math.pi * t**3))
                        * np.exp(-c * c / (4.0 * sigma**2 * t))))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_6_image_kernels_match_closed_transforms():
    triples = ((1.0, 0.5, 0.3), (0.7, 1.2, 0.2), (2.0, 0.8, 1.1))
    worst = 0.0
    for l, sigma, x0 in triples:
        for lam in (1.0, 10.0, 100.0):
            w = math.sqrt(lam) / sigma
            cases = (
                (lambda t: eta_kernel(t, l, sigma, "even"),
                 1.0 / (sigma * math.sqrt(lam) * math.tanh(w * l))),
                (lambda t: eta_kernel(t, l, sigma, "odd"),
                 1.0 / (sigma * math.sqrt(lam) * math.sinh(w * l))),
                (lambda t: _image_gradient(t, -x0, l, sigma),
                 math.sinh(w * (l - x0)) / (sigma**2 * math.sinh(w * l))),
                (lambda t: _image_gradient(t, l - x0, l, sigma),
                 -math.sinh(w * x0) / (sigma**2 * math.sinh(w * l))),
            )
            for f, ref in cases:
                got = forward_laplace_numeric(f, lam)
                worst = max(worst, abs(got - ref) / abs(ref))
    ok = worst <= 1e-7
    line = report(6, ok, f"worst rel err {worst:.1e} vs 1e-7")
    assert ok, line


def test_criterion_7_dual_series_equivalence():
    l = 1.0
    worst = 0.0
    for delta in np.geomspace(5e-3, 5.0, 50):
        for a in (0.0, 0.3, -0.7, 1.0):
            ei = _image_sum(delta, a, l, 0)
            et = _theta_sum(delta, a, l, 0)
            worst = max(worst, abs(ei - et) / max(1.0, abs(ei)))
            ui = _image_sum(delta, a, l, 1)
            ut = _theta_sum(delta, a, l, 1)
            worst = max(worst, abs(ui - ut) / max(1.0, abs(ui)))
    ok = worst <= 1e-10
    line = report(7, ok, f"worst rel diff {worst:.1e} vs 1e-10 over 50 samples")
    assert ok, line


def test_criterion_8_greens_function_structure():
    boundaries = np.linspace(-1.0, 1.0, 9)
    sigmas = np.array([0.12, 0.10, 0.15, 0.11, 0.13, 0.10, 0.14, 0.12])
    medium = LayeredMedium(boundaries=boundaries, sigmas=sigmas)

    # symmetry in (x, x0) at T = 1
    x0 = 0.07
    probes = np.array([-0.61, -0.15, 0.33, 0.52, 0.88])
    fld = greens_function(GreensProblem(medium=medium, x0=x0, T=1.0),
                          scheme=SCHEME, xs=probes)
    mirrored = np.array([
        greens_function(GreensProblem(medium=medium, x0=float(x), T=1.0),
                        scheme=SCHEME, xs=np.array([x0])).values[0]
        for x in probes
    ])
    peak = np.max(np.abs(greens_function(GreensProblem(medium=medium, x0=x0, T=1.0),
                                         scheme=SCHEME).values))
    sym_err = np.max(np.abs(fld.values - mirrored))

    flux_err = np.max(np.abs(greens_function(
        GreensProblem(medium=medium, x0=x0, T=1.0), scheme=SCHEME).flux_jumps))

    # short-time mass: the profile is a narrow spike around the source, so
    # a uniform fine grid there captures all but ~1e-30 of the mass
    fine = x0 + np.linspace(-0.08, 0.08, 4001)
    short = greens_function(GreensProblem(medium=medium, x0=x0, T=1e-4),
                            scheme=SCHEME, xs=fine)
    mass = float(simpson(short.values, x=fine))

    ok = (sym_err <= 1e-6 * peak and flux_err <= 1e-6 * peak
          and 0.999 <= mass <= 1.0)
    line = report(8, ok, f"symmetry {sym_err / peak:.1e}, flux {flux_err / peak:.1e} "
                         f"(both vs 1e-6 of peak), mass {mass:.6f} in [0.999, 1]")
    assert ok, line


def test_criterion_9_volterra_gradients():
    # fixed strip seeded with the analytic kernel profile at t0 > 0
    t0, T, x0 = 0.05, 0.55, 0.3

    def u_exact(x, t):
        return strip_green(StripProblem(0.0, 1.0, 1.0, x0, t), x)

    prob = GitLayerProblem(y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
                           u0=lambda x: u_exact(x, t0), T=T - t0, M=200)
    g = solve_volterra_single_layer(prob)
    h = 1e-6
    exact_omega = -(u_exact(h, T) - 0.0) / h
    exact_theta = (0.0 - u_exact(1.0 - h, T)) / h
    grad_err = max(abs(g.omega[-1] - exact_omega) / abs(exact_omega),
                   abs(g.theta[-1] - exact_theta) / abs(exact_theta))

    zero = solve_volterra_single_layer(GitLayerProblem(
        y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
        u0=lambda x: 0.0, T=1.0, M=30))
    exact_zero = np.max(np.abs(zero.omega)) == 0.0 and np.max(np.abs(zero.theta)) == 0.0

    residuals = []
    for M in (25, 50, 100, 200):
        moving = GitLayerProblem(
            y_minus=0.0, y_plus=lambda t: 1.0 + 0.3 * t,
            chi_minus=0.1, chi_plus=lambda t: 0.2 + 0.1 * t,
            u0=lambda x: 0.1 + 0.1 * x + math.sin(math.pi * x), T=0.8, M=M)
        residuals.append(_gradient_residual(moving, solve_volterra_single_layer(moving)))
    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))

    ok = grad_err <= 5e-3 and exact_zero and monotone
    line = report(9, ok, f"gradient rel err {grad_err:.1e} vs 5e-3, exact zeros "
                         f"{exact_zero}, residuals monotone {monotone}")
    assert ok, line


def test_criterion_10_transform_suite():
    # at-the-money call through the chart vs the normal-vol closed form
    r, q, v0, T = 0.02, 0.01, 0.04, 1.0
    chart = dupire_to_heat(TermStructure(r=r, q=q), v0, T)
    tau = chart.tau_of_t(T)
    heat_val, _ = quad(lambda y: y * math.exp(-y * y / (4.0 * tau))
                       / math.sqrt(4.0 * math.pi * tau), 0.0, 40.0 * math.sqrt(tau))
    value = chart.multiplier(T) * heat_val
    var_fwd, _ = quad(lambda s: v0 * math.exp(2.0 * (r - q) * (T - s)), 0.0, T)
    ref = math.exp(-r * T) * math.sqrt(var_fwd / (2.0 * math.pi))
    dupire_err = abs(value - ref) / ref

    # degenerate affine bond
    ts0 = TermStructure()
    bond_err = max(
        abs(bk_affine_zcb(ts0, 0.0, 1.0, t, 2.0, z=0.1, R=1.0)
            - math.exp(-(2.0 - t) * 1.0 * math.exp(0.1)))
        for t in (0.0, 0.5, 1.5, 2.0)
    )

    # exponential coefficient map closed form
    a, c1 = 0.8, 1.3
    dchart = nondivergent_to_divergent(lambda x: math.exp(-0.5 * a * x), c1, 0.0)
    map_err = max(
        abs(dchart.z_of_x(x) - (c1 / a) * (math.exp(a * x) - 1.0))
        for x in (-1.0, 0.0, 0.5, 1.5)
    )

    ts = TermStructure(kappa=0.5, theta=0.03, sigma=0.2, s=0.01)
    charts = [verhulst_chart(ts, R=0.02, i=i, N=4, L=1.0, horizon=2.0)
              for i in range(4)]
    terminal_zero = charts[0].tau_of_t(2.0) == 0.0
    ordered = all(
        all(a.nu(t) < b.nu(t) for a, b in zip(charts, charts[1:]))
        for t in (0.0, 1.0, 2.0)
    )

    ok = (dupire_err <= 1e-3 and bond_err <= 1e-10 and map_err <= 1e-12
          and terminal_zero and ordered)
    line = report(10, ok, f"dupire {dupire_err:.1e} vs 1e-3, bond {bond_err:.1e} "
                          f"vs 1e-10, map {map_err:.1e} vs 1e-12, "
                          f"terminal-zero {terminal_zero}, ordered {ordered}")
    assert ok, line
