"""The package and its CLI import in a fresh interpreter, without scipy, with one
error contract.

Within one pytest process a module that failed to import can hide behind
submodules already cached in ``sys.modules``; a new interpreter cannot.

Rejected input raises ``ConfigError`` everywhere in the library, which
the CLI maps to exit code 2; a bare ``ValueError`` is left to numpy and
scipy, where it marks a program fault.
"""

import ast
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

import mlheat.fd
import mlheat.layered
from mlheat import (ConfigError, FdGrid, GitLayerProblem, GreensProblem, LayeredMedium,
                    StripProblem, TermStructure, assemble_system, build_internal_boundaries,
                    eta_kernel, fd_solve, git_field_single_layer, solve_tridiagonal,
                    solve_volterra_single_layer, stehfest_weights, theta3, verhulst_chart)

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


def test_no_module_raises_bare_value_error():
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "mlheat", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not offenders, f"raise ConfigError for rejected input: {offenders}"


def _medium():
    return LayeredMedium(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))


def _strip(M=4):
    return GitLayerProblem(0.0, 1.0, 0.0, 0.0, 0.0, T=1.0, M=M)


def _field_at_nan_time():
    problem = _strip()
    return git_field_single_layer(problem, solve_volterra_single_layer(problem), 0.3, math.nan)


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
    _field_at_nan_time,
    lambda: _strip(M=2.5),
    lambda: _strip(M="5"),
    lambda: FdGrid.for_problem(GreensProblem(_medium(), x0=0.3, T=1.0), 40.5, 40),
    lambda: FdGrid.for_problem(GreensProblem(_medium(), x0=0.3, T=1.0), 41, 40.5),
    lambda: build_internal_boundaries(-1.0, 1.0, 3.5, 1, 1.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0.5, 4, 1.0, 1.0),
    lambda: verhulst_chart(TermStructure(), 1.0, 0, 4.5, 1.0, 1.0),
], ids=["decreasing-boundaries", "sigma-count", "x0-on-boundary", "negative-T",
        "odd-stehfest", "fd-nx-3", "x0-outside-strip", "nome-1", "nan-phase", "eta-parity",
        "field-nan-time", "volterra-M-2.5", "volterra-M-string", "fd-nx-40.5", "fd-mt-40.5",
        "boundaries-N-3.5", "verhulst-i-0.5", "verhulst-N-4.5"])
def test_rejected_input_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()


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
