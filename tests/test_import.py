"""The package and its CLI import in a fresh interpreter, without scipy, with one
error contract.

Within one pytest process a module that failed to import can hide behind
submodules already cached in ``sys.modules``; a new interpreter cannot.

Rejected input raises ``ConfigError`` everywhere in the library, which
the CLI maps to exit code 2; a bare ``ValueError`` is left to numpy and
scipy, where it marks a program fault.
"""

import ast
import dataclasses
import functools
import glob
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlheat.fd
import mlheat.layered
from mlheat import (ConfigError, Curve, FdGrid, GitLayerProblem, GreensProblem, LayeredMedium,
                    StripProblem, TermStructure, assemble_system, bk_affine_zcb, bk_layer_chart,
                    build_internal_boundaries, check_refinement, dupire_to_heat, eta_kernel,
                    fd_solve, forward_laplace_numeric, git_field_single_layer, git_kernel_set,
                    greens_function, invert_laplace, laplace_field, locate_source_layer,
                    nondivergent_to_divergent,
                    TridiagonalSystem, solve_tridiagonal, solve_volterra_single_layer,
                    stehfest_weights, strip_green, theta3, verhulst_chart)
from mlheat.special_functions import folded_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# deprecations raised from mlheat's own modules at import time become
# errors, so an API that numpy or scipy is about to remove shows up here
CHECK = """
import warnings
warnings.filterwarnings("error", category=DeprecationWarning, module=r"mlheat(\\.|$)")
import mlheat, mlheat.cli
missing = [name for name in mlheat.__all__ if not hasattr(mlheat, name)]
assert not missing, f"unresolved names in mlheat.__all__: {missing}"
print(mlheat.__file__)
"""


# the method runs on numpy alone: scipy comes in only with a reference
# path that calls it, such as the FD march
SCIPY_FREE = """
import json, os, sys
import mlheat, mlheat.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), f"import mlheat loaded {scipy_modules()}"
config, out = os.path.join(sys.argv[1], "config.json"), os.path.join(sys.argv[1], "out.csv")
runs = [
    (["green"], {"problem": {"y0": -1.0, "yN": 4.0, "sigma": 0.5, "x0": 0.05, "T": 1.0},
                 "solver": {"m": 16, "layers": 20}, "eval": {"grid": 51}}),
    (["boundaries"], {"chi_minus": [-0.2, 0.1], "chi_plus": [1.0, -0.1, 0.02], "N": 4,
                      "degree": 2, "T": 1.0}),
    (["transform", "dupire"], {"r": 0.02, "q": 0.01, "v": 0.04, "T": 1.0, "samples": 5}),
    (["transform", "bk"], {"kappa": 0.3, "theta": 0.05, "sigma": 0.2, "s": 0.01, "a": 0.02,
                           "b": 0.5, "S": 1.5, "samples": 5}),
    (["transform", "verhulst"], {"kappa": 0.5, "theta": 0.03, "sigma": 0.2, "R": 0.02,
                                 "i": 1, "N": 4, "horizon": 1.0, "samples": 5}),
    (["transform", "divergent"], {"xi": {"kind": "sampled", "x": [-2.0, 0.5, 3.0],
                                         "values": [1.0, 1.4, 0.8]},
                                  "c1": 1.3, "c2": 0.1, "z_min": -1.0, "z_max": 2.0}),
]
for args, payload in runs:
    with open(config, "w") as fh:
        json.dump(payload, fh)
    assert mlheat.cli.main(args + ["--config", config, "--out", out]) == 0, args
problem = mlheat.GitLayerProblem(y_minus=0.0, y_plus=lambda t: 1.0 + 0.3 * t, chi_minus=0.1,
                                 chi_plus=0.2, u0=lambda x: 0.1 + 0.1 * x, T=0.5, M=20)
mlheat.git_field_single_layer(problem, mlheat.solve_volterra_single_layer(problem), 0.5, 0.4)
assert not scipy_modules(), f"the numpy-only paths loaded {scipy_modules()}"

medium = mlheat.LayeredMedium([0.0, 0.5, 1.0], [1.0, 2.0])
green = mlheat.GreensProblem(medium, x0=0.3, T=0.1)
mlheat.fd_solve(green, mlheat.FdGrid.for_problem(green, 41, 40))
assert "scipy.linalg" in sys.modules
"""


def _fresh(code, *args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_fresh_interpreter_imports_package_and_cli():
    proc = _fresh(CHECK)
    assert proc.returncode == 0, proc.stderr
    where = os.path.realpath(proc.stdout.strip())
    assert where.startswith(os.path.realpath(SRC) + os.sep), where


def test_scipy_is_loaded_only_by_the_paths_that_call_it(tmp_path):
    proc = _fresh(SCIPY_FREE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_version_has_one_source():
    # the build reads mlheat.__version__ instead of repeating it
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        cfg = tomllib.load(f)
    assert "version" not in cfg["project"] and "version" in cfg["project"]["dynamic"]
    assert cfg["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "mlheat.__version__"}


def _modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(glob.glob(os.path.join(SRC, "mlheat", "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def _raises(node, name):
    """The lines under ``node`` that raise the exception class ``name``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
            if isinstance(exc, ast.Name) and exc.id == name:
                yield sub.lineno


def test_no_module_raises_bare_value_error():
    offenders = [f"{name}:{line}" for name, tree in _modules()
                 for line in _raises(tree, "ValueError")]
    assert not offenders, f"raise ConfigError for rejected input: {offenders}"


def _bare_isfinite(node):
    """True when ``node`` calls isfinite outside np.all, np.any, .all() or .any()."""
    if isinstance(node, ast.Call):
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        if called in ("all", "any"):
            return False
        if called == "isfinite":
            return True
    return any(_bare_isfinite(child) for child in ast.iter_child_nodes(node))


def test_scalar_inputs_are_checked_only_in_errors():
    # a scalar goes through errors.number or errors.positive; an isfinite test
    # that guards a ConfigError elsewhere is left to whole-array checks
    offenders = [f"{name}:{line}" for name, tree in _modules() if name != "errors.py"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.If) and _bare_isfinite(node.test)
                 for stmt in node.body for line in _raises(stmt, "ConfigError")]
    assert not offenders, f"check the scalar with errors.number or errors.positive: {offenders}"


def _medium():
    return LayeredMedium(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))


def _strip(M=4, y_plus=1.0):
    return GitLayerProblem(0.0, y_plus, 0.0, 0.0, 0.0, T=1.0, M=M)


def _field(problem, x, tau):
    return git_field_single_layer(problem, solve_volterra_single_layer(problem), x, tau)


def _nan_wall_at(t):
    """A plus wall at 1 that is NaN at time t alone."""
    return lambda s: np.where(np.asarray(s) == t, math.nan, 1.0)


def _nan_curve(t):
    return math.nan * np.asarray(t)


# Every array argument of the library's entries: entry.argument -> (a bool
# array that would be a valid value as floats, the call with the argument
# set to a value and every other argument valid).
_ARRAY_SLOTS = {
    "LayeredMedium.boundaries": ([False, True], lambda v: LayeredMedium(v, [1.0])),
    "LayeredMedium.sigmas": ([True], lambda v: LayeredMedium([0.0, 1.0], v)),
    "LayeredMedium.uniform.sigmas": ([True], lambda v: LayeredMedium.uniform(0.0, 1.0, v)),
    "greens_function.xs": ([False, True], lambda v: greens_function(
        GreensProblem(_medium(), 0.3, 1.0), xs=v).values),
    "solve_tridiagonal.diag": ([True], lambda v: solve_tridiagonal(
        TridiagonalSystem(v, np.empty(0), [1.0], 1.0))),
    "solve_tridiagonal.offdiag": ([True], lambda v: solve_tridiagonal(
        TridiagonalSystem([3.0, 3.0], v, [1.0, 1.0], 1.0))),
    "solve_tridiagonal.rhs": ([True], lambda v: solve_tridiagonal(
        TridiagonalSystem([3.0], np.empty(0), v, 1.0))),
    "laplace_field.g_hat": ([True], lambda v: laplace_field(
        GreensProblem(_medium3(), 1, 1), 2.0, v, 1.5)),
    "strip_green.x": ([False, True], lambda v: strip_green(StripProblem(-1, 2, 1, 1, 1), v)),
    "folded_kernel.delta": ([True], lambda v: folded_kernel(v, 0.5, 1.0)),
    "folded_kernel.a": ([True], lambda v: folded_kernel(1.0, v, 1.0)),
    "folded_kernel.l": ([True], lambda v: folded_kernel(1.0, 0.5, v)),
    "theta3.z": ([True], lambda v: theta3(v, 0.5)),
    "theta3.q": ([False], lambda v: theta3(0.5, v)),
    "Curve.times": ([False, True], lambda v: Curve(v, [0.0, 1.0])(0.5)),
    "Curve.values": ([False, True], lambda v: Curve([0.0, 1.0], v)(0.5)),
    "Curve.t": ([True], lambda v: Curve([0.0, 1.0], [0.0, 1.0])(v)),
    "Curve.constant.t": ([True], lambda v: Curve(constant=1.0)(v)),
    "callable-curve.t": ([True], lambda v: TermStructure(r=lambda t: 0.1 * t).r(v)),
    "chart.tau_of_t": ([True], lambda v: dupire_to_heat(_RATES, 0.04, 1.0).tau_of_t(v)),
    "chart.t_of_tau": ([False], lambda v: dupire_to_heat(_RATES, 0.04, 1.0).t_of_tau(v)),
    "divergent.z_of_x": ([True], lambda v: nondivergent_to_divergent(1.0, 1.0, 0.0).z_of_x(v)),
    "divergent.x_of_z": ([True], lambda v: nondivergent_to_divergent(1.0, 1.0, 0.0).x_of_z(v)),
    "nondivergent_to_divergent.boundaries": ([False, True], lambda v: nondivergent_to_divergent(
        1.0, 1.0, 0.0, boundaries=v).boundary_images),
    "bk_affine_zcb.t": ([False, True], lambda v: bk_affine_zcb(_RATES, 0.02, 0.5, v, 1.0, 0.0)),
    "PolynomialBoundarySet.evaluate.t": ([True], lambda v: build_internal_boundaries(
        -1.0, 1.0, 3, 1, 1.0).evaluate(0, v)),
    "git_field_single_layer.x": ([True], lambda v: git_field_single_layer(*_march(), v, 0.5)),
}
# the bad values of an array argument, from its bool array
_NOT_REALS = {"string": lambda b: "a", "ragged": lambda b: [[0.5], [0.5, 0.6]],
              "bool-array": np.array}


@pytest.mark.parametrize("call", [
    lambda: LayeredMedium(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0])),
    lambda: LayeredMedium(np.array([0.0, 1.0]), np.array([1.0, 2.0])),
    lambda: GreensProblem(_medium(), x0=0.5, T=1.0),
    lambda: GreensProblem(_medium(), x0=0.3, T=-1.0),
    lambda: stehfest_weights(3),
    lambda: FdGrid.for_problem(GreensProblem(_medium(), x0=0.3, T=1.0), 3, 40),
    lambda: StripProblem(y0=0.0, yN=1.0, sigma=1.0, x0=1.5, T=1.0),
    lambda: theta3(0.0, 1.0),
    lambda: theta3(math.nan, 0.5),
    lambda: eta_kernel(0.1, 1.0, 1.0, "both"),
    lambda: _field(_strip(), 0.3, math.nan),
    lambda: _strip(M=2.5),
    lambda: _strip(M="5"),
    lambda: FdGrid.for_problem(GreensProblem(_medium(), x0=0.3, T=1.0), 40.5, 40),
    lambda: FdGrid.for_problem(GreensProblem(_medium(), x0=0.3, T=1.0), 41, 40.5),
    lambda: build_internal_boundaries(-1.0, 1.0, 3.5, 1, 1.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0.5, 4, 1.0, 1.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0, 4.5, 1.0, 1.0),
    lambda: nondivergent_to_divergent(1.0, math.nan, 0.0).z_of_x(0.5),
    lambda: nondivergent_to_divergent(1.0, math.inf, 0.0).z_of_x(0.5),
    lambda: GreensProblem(_medium(), 0.3, True),
    lambda: GitLayerProblem(0.0, 1.0, 0.0, 0.0, 0.0, T=True, M=4),
    lambda: StripProblem(0.0, 1.0, True, 0.3, 1.0),
    lambda: build_internal_boundaries(-1, 1, 3, 1, True),
    lambda: GreensProblem(_medium(), 0.3, "1"),
    lambda: StripProblem(0.0, 1.0, 1.0, 0.3, "1"),
    lambda: invert_laplace(lambda lam: 1.0 / lam, "1"),
    lambda: forward_laplace_numeric(lambda t: 1.0, "1"),
    lambda: GreensProblem(_medium(), "0.3", 1.0),
    lambda: dupire_to_heat(TermStructure(), 0.04, "1"),
    lambda: eta_kernel(np.array([0.1, 0.2]), 1.0, 1.0, "even"),
    lambda: Curve(constant="x"),
    lambda: bk_layer_chart(TermStructure(), 0.0, 0.0, 1.0, constants=(math.nan, 0, 0, 0, 0)),
    lambda: bk_affine_zcb(TermStructure(), 0.0, 0.5, 0.5, 1.0, z=800.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0, 10**300, 1.0, 1.0),
    lambda: build_internal_boundaries(_nan_curve, 1.0, 3, 1, 1.0),
    lambda: Curve([math.nan, 1.0], [0.0, 1.0]),
    lambda: dupire_to_heat(TermStructure(), 0.04, 1.0).tau_of_t(math.nan),
    lambda: dupire_to_heat(TermStructure(), 0.04, 1.0).t_of_tau(math.nan),
    lambda: _field(_strip(), math.nan, 0.0),
    lambda: solve_volterra_single_layer(_strip(y_plus=_nan_wall_at(0.5))),
    lambda: _field(_strip(y_plus=_nan_wall_at(0.3)), 0.5, 0.3),
    lambda: dupire_to_heat(TermStructure(), _nan_curve, 1.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0, 4, _nan_curve, 1.0),
    lambda: nondivergent_to_divergent(_nan_curve, 1.0, 0.0).z_of_x(0.5),
    lambda: nondivergent_to_divergent(1.0, 1.0, 0.0).z_of_x(math.nan),
    lambda: nondivergent_to_divergent(1.0, 1.0, 0.0).x_of_z(math.inf),
    lambda: bk_affine_zcb(TermStructure(), 0.0, 0.5, math.nan, 1.0, 0.0),
    lambda: greens_function(GreensProblem(_medium(), 0.3, 1.0), xs=np.zeros((2, 2))),
    lambda: greens_function(GreensProblem(_medium(), 0.3, 1.0), xs=0.5),
    lambda: Curve([0.0, 1.0], [math.nan, 1.0]),
] + [functools.partial(call, bad(b)) for b, call in _ARRAY_SLOTS.values()
     for bad in _NOT_REALS.values()], ids=["decreasing-boundaries", "sigma-count", "x0-on-boundary", "negative-T",
        "odd-stehfest", "fd-nx-3", "x0-outside-strip", "nome-1", "nan-phase", "eta-parity",
        "field-nan-time", "volterra-M-2.5", "volterra-M-string", "fd-nx-40.5", "fd-mt-40.5",
        "boundaries-N-3.5", "verhulst-i-0.5", "verhulst-N-4.5", "divergent-c1-nan",
        "divergent-c1-inf", "greens-T-true", "volterra-T-true", "strip-sigma-true",
        "boundaries-T-true", "greens-T-string", "strip-T-string", "invert-T-string",
        "forward-lambda-string", "greens-x0-string", "dupire-T-string", "eta-dt-array",
        "curve-constant-string", "bk-C1-nan", "bk-zcb-z-800", "verhulst-N-int-1e300",
        "boundaries-nan-curve", "curve-nan-time", "chart-nan-t", "chart-nan-target",
        "field-nan-point-at-0", "volterra-nan-wall", "field-nan-wall-off-grid",
        "dupire-nan-variance", "verhulst-nan-barrier", "divergent-nan-xi", "divergent-nan-x",
        "divergent-inf-z", "bk-zcb-nan-t", "greens-xs-2d", "greens-xs-scalar", "curve-nan-value",
        ] + [f"{slot}-{kind}" for slot in _ARRAY_SLOTS for kind in _NOT_REALS])
def test_rejected_input_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("call, rule", [
    (lambda: _field(_strip(), math.nan, 0.5), "outside the strip"),
    (lambda: solve_volterra_single_layer(_strip(y_plus=_nan_wall_at(0.0))),
     "boundaries cross at t = 0"),
    (lambda: git_kernel_set(1.0, 0.0, 0.0, _nan_wall_at(1.0), 0.5), "boundaries cross"),
], ids=["field-nan-point", "volterra-nan-wall-at-0", "kernel-set-nan-wall"])
def test_nan_fails_the_rule_it_breaks(call, rule):
    # a NaN used to pass these checks and fail a later one, under its message
    with pytest.raises(ConfigError, match=rule):
        call()


def test_rejected_array_names_its_argument_in_a_short_message():
    # the message shows a bounded repr of the value, however long the list
    with pytest.raises(ConfigError, match="^xs: expected real numbers") as err:
        greens_function(GreensProblem(_medium(), 0.3, 1.0), xs=["a"] * 10**5)
    assert len(str(err.value)) < 200


# The entries that take an array argument, each as a function of it at
# values 0.25 and 0.5 inside its range.
_ANSWERS = {
    "chart.tau_of_t": lambda v: dupire_to_heat(TermStructure(), 2.0, 1.0).tau_of_t(v),
    "chart.t_of_tau": lambda v: dupire_to_heat(TermStructure(), 2.0, 1.0).t_of_tau(v),
    "Curve.constant": lambda v: Curve(constant=1.5)(v),
    "Curve.sampled": lambda v: Curve([0.0, 1.0], [0.0, 2.0])(v),
    "z_of_x": lambda v: nondivergent_to_divergent(1.0, 1.3, 0.1).z_of_x(v),
    "x_of_z": lambda v: nondivergent_to_divergent(1.0, 1.3, 0.1).x_of_z(v),
    "strip_green.image": lambda v: strip_green(StripProblem(0.0, 1.0, 1.0, 0.3, 0.01), v),
    "strip_green.theta": lambda v: strip_green(StripProblem(0.0, 1.0, 1.0, 0.3, 1.0), v),
    "theta3": lambda v: theta3(v, 0.3),
    "git_field_single_layer": lambda v: git_field_single_layer(*_march(), v, 0.5),
}


@pytest.mark.parametrize("entry", sorted(_ANSWERS))
def test_0d_argument_answers_as_a_float(entry):
    # an argument with np.ndim 0 gives a float, anything else an ndarray of its shape
    call = _ANSWERS[entry]
    for v in (0.5, np.float64(0.5), np.array(0.5)):
        assert isinstance(call(v), float), type(v)
    for v in ([0.25, 0.5], [[0.25, 0.5]], np.array([0.5])):
        out = call(v)
        assert isinstance(out, np.ndarray) and out.shape == np.shape(v), np.shape(v)


# Bad scalars: a "positive" slot also rejects 0 and negative values.
_NOT_A_NUMBER = st.one_of(
    st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(-1e3, 1e3).map(repr), st.integers(-5, 5).map(str),
    st.floats(0.1, 10.0).map(lambda v: np.array([v])))
_NOT_POSITIVE = st.one_of(_NOT_A_NUMBER, st.integers(max_value=0),
                          st.floats(max_value=0.0, allow_nan=False))

_XS = np.linspace(-1.0, 2.0, 7)
_T = np.linspace(0.0, 1.0, 5)
_RATES = TermStructure(r=0.02, q=0.01, kappa=0.3, theta=0.05, sigma=0.2, s=0.01)


def _medium3():
    return LayeredMedium(np.array([-1.0, 0.5, 2.0]), np.array([1.0, 2.0]))


def _green(x0=1, T=1):
    return greens_function(GreensProblem(_medium3(), x0, T), xs=_XS).values


def _strip_green(y0=-1, yN=2, sigma=1, x0=1, T=1):
    return strip_green(StripProblem(y0, yN, sigma, x0, T), _XS)


def _volterra(T=1):
    problem = GitLayerProblem(0.0, 1.0, 0.0, 1.0, lambda x: x + np.sin(np.pi * x), T=T, M=8)
    g = solve_volterra_single_layer(problem)
    return g.omega, g.theta


@functools.cache
def _march():
    problem = GitLayerProblem(0.0, lambda t: 1.0 + 0.2 * np.asarray(t), 0.0, 1.0,
                              lambda x: x + np.sin(np.pi * x), T=1.0, M=8)
    return problem, solve_volterra_single_layer(problem)


def _chart(chart):
    return chart.tau_of_t(_T), chart.x_of_state(_T, 0.3), chart.multiplier(_T, 0.3)


def _forward(lam=1, t_max=None, tol=1e-12):
    return forward_laplace_numeric(lambda t: math.exp(-t), lam, t_max, tol)


def _bk(C1=1, S=1):
    return _chart(bk_layer_chart(_RATES, 0.02, 0.5, S, constants=(C1, 0, 0, 0, 0)))


def _zcb(S=1, z=0, R=1):
    return bk_affine_zcb(_RATES, 0.02, 0.5, _T, S, z, R)


def _divergent(c1=1, c2=0):
    return nondivergent_to_divergent(lambda x: np.exp(-0.4 * np.asarray(x)), c1, c2).z_of_x(_XS)


def _verhulst(R=1, horizon=1):
    return _chart(verhulst_chart(_RATES, R, 1, 4, 1.5, horizon))


# Every scalar slot of the library's entries: entry.slot -> (its bad values, a
# valid value, the call with the slot set to a value and every other argument
# valid).
_SLOTS = {
    "StripProblem.y0": (_NOT_A_NUMBER, -1, lambda v: _strip_green(y0=v)),
    "StripProblem.yN": (_NOT_A_NUMBER, 2, lambda v: _strip_green(yN=v)),
    "StripProblem.sigma": (_NOT_POSITIVE, 1, lambda v: _strip_green(sigma=v)),
    "StripProblem.x0": (_NOT_A_NUMBER, 1, lambda v: _strip_green(x0=v)),
    "StripProblem.T": (_NOT_POSITIVE, 1, lambda v: _strip_green(T=v)),
    "LayeredMedium.uniform.y0": (_NOT_A_NUMBER, -1, lambda v: LayeredMedium.uniform(
        v, 2, [1.0, 2.0]).boundaries),
    "LayeredMedium.uniform.yN": (_NOT_A_NUMBER, 2, lambda v: LayeredMedium.uniform(
        -1, v, [1.0, 2.0]).boundaries),
    "locate_source_layer.x0": (_NOT_A_NUMBER, 1, lambda v: locate_source_layer(_medium3(), v)),
    "GreensProblem.x0": (_NOT_A_NUMBER, 1, lambda v: _green(x0=v)),
    "GreensProblem.T": (_NOT_POSITIVE, 1, lambda v: _green(T=v)),
    "assemble_system.lam": (_NOT_POSITIVE, 2, lambda v: dataclasses.astuple(
        assemble_system(GreensProblem(_medium3(), 1, 1), v))),
    "laplace_field.lam": (_NOT_POSITIVE, 2, lambda v: laplace_field(
        GreensProblem(_medium3(), 1, 1), v, [0.1], 1.5)),
    "laplace_field.x": (_NOT_A_NUMBER, 1, lambda v: laplace_field(
        GreensProblem(_medium3(), 0, 1), 2.0, [0.1], v)),
    "invert_laplace.T": (_NOT_POSITIVE, 1,
                         lambda v: invert_laplace(lambda lam: 1.0 / (lam + 1.0), v)),
    "forward_laplace_numeric.lam": (_NOT_POSITIVE, 1, lambda v: _forward(lam=v)),
    # None stands for the default t_max
    "forward_laplace_numeric.t_max": (_NOT_POSITIVE.filter(lambda v: v is not None), 40,
                                      lambda v: _forward(t_max=v)),
    "forward_laplace_numeric.tol": (_NOT_POSITIVE, 1e-12, lambda v: _forward(tol=v)),
    "eta_kernel.dt": (_NOT_POSITIVE, 1, lambda v: eta_kernel(v, 1, 1, "even")),
    "eta_kernel.l": (_NOT_POSITIVE, 1, lambda v: eta_kernel(1, v, 1, "odd")),
    "eta_kernel.sigma": (_NOT_POSITIVE, 1, lambda v: eta_kernel(1, 1, v, "even")),
    "GitLayerProblem.T": (_NOT_POSITIVE, 1, _volterra),
    "check_refinement.rel_tol": (_NOT_POSITIVE, 1, lambda v: tuple(
        arr for pair in check_refinement(_march()[0], v) for arr in (pair.omega, pair.theta))),
    "build_internal_boundaries.T": (_NOT_POSITIVE, 2, lambda v: build_internal_boundaries(
        -1, lambda t: 1.0 + 0.1 * np.asarray(t), 3, 2, v).coeffs),
    "git_field_single_layer.tau": (_NOT_A_NUMBER, 1, lambda v: git_field_single_layer(
        *_march(), np.array([0.3, 0.6]), v)),
    "git_kernel_set.tau": (_NOT_A_NUMBER, 1, lambda v: dataclasses.astuple(
        git_kernel_set(v, 0, 0, 1, 0.5))),
    "git_kernel_set.s": (_NOT_A_NUMBER, 0, lambda v: dataclasses.astuple(
        git_kernel_set(1, v, 0, 1, 0.5))),
    "git_kernel_set.xi": (_NOT_A_NUMBER, 0, lambda v: dataclasses.astuple(
        git_kernel_set(1, 0, 0, 1, v))),
    "bk_layer_chart.C1": (_NOT_POSITIVE, 1, lambda v: _bk(C1=v)),
    "bk_layer_chart.S": (_NOT_POSITIVE, 1, lambda v: _bk(S=v)),
    "bk_affine_zcb.S": (_NOT_POSITIVE, 1, lambda v: _zcb(S=v)),
    "bk_affine_zcb.z": (_NOT_A_NUMBER, 0, lambda v: _zcb(z=v)),
    "bk_affine_zcb.R": (_NOT_A_NUMBER, 1, lambda v: _zcb(R=v)),
    "nondivergent_to_divergent.c1": (_NOT_POSITIVE, 1, lambda v: _divergent(c1=v)),
    "nondivergent_to_divergent.c2": (_NOT_A_NUMBER, 0, lambda v: _divergent(c2=v)),
    "Curve.constant": (_NOT_A_NUMBER, 1, lambda v: Curve(constant=v)(_T)),
    "dupire_to_heat.T": (_NOT_POSITIVE, 1, lambda v: _chart(dupire_to_heat(_RATES, 0.04, v))),
    "verhulst_chart.R": (_NOT_A_NUMBER, 1, lambda v: _verhulst(R=v)),
    "verhulst_chart.horizon": (_NOT_POSITIVE, 1, lambda v: _verhulst(horizon=v)),
}


@pytest.mark.parametrize("slot", sorted(_SLOTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_scalar_in_any_slot_raises_config_error(slot, data):
    bad, _, call = _SLOTS[slot]
    value = data.draw(bad)
    with pytest.raises(ConfigError):
        call(value)


def _bits(result):
    """The bytes of a result: a number, an array or a tuple of them."""
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    return np.asarray(result, dtype=float).tobytes()


@pytest.mark.parametrize("slot", sorted(_SLOTS))
def test_int_float_and_numpy_forms_give_the_same_bits(slot):
    _, valid, call = _SLOTS[slot]
    forms = [float(valid), np.float64(valid)] + ([int(valid)] if float(valid).is_integer() else [])
    first, *rest = (_bits(call(v)) for v in forms)
    assert all(r == first for r in rest)


def test_tracer_names_resolve():
    # bench/tracing.py wraps these package functions by name, so a rename
    # here would crash `bench/run.py --trace 1`
    path = os.path.join(ROOT, "bench", "tracing.py")
    if not os.path.exists(path):
        pytest.skip("no bench/ beside the package")
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    names = [(mod, fn) for mod, fns in tracing.SPANS.items() for fn in fns]
    names += list(tracing.COUNTERS)
    names += [("transforms", fn) for fn in tracing.CHART_FACTORIES + ("bk_affine_zcb",)]
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"mlheat.{mod}"), fn, None))]
    assert not missing, f"names bench/tracing.py traces but mlheat lacks: {missing}"


def test_scipy_routines_are_called_through_their_module_attribute():
    # bench/tracing.py counts scipy calls by replacing these module
    # attributes, so the library must look them up there at each call
    calls = Counter()
    targets = [(mlheat.fd, "solve_banded"), (mlheat.layered, "_dgtsv")]
    originals = [getattr(mod, attr) for mod, attr in targets]

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for (mod, attr), fn in zip(targets, originals):
            setattr(mod, attr, counting(attr, fn))
        problem = GreensProblem(_medium(), x0=0.3, T=0.1)
        fd_solve(problem, FdGrid.for_problem(problem, 41, 40))
        solve_tridiagonal(assemble_system(problem, 2.0))
    finally:
        for (mod, attr), fn in zip(targets, originals):
            setattr(mod, attr, fn)
    assert calls == {"solve_banded": 40, "_dgtsv": 1}
