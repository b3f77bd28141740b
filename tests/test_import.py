"""The package and its CLI import in a fresh interpreter, with one error contract.

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

import numpy as np
import pytest

from mlheat import (ConfigError, FdGrid, GreensProblem, LayeredMedium, StripProblem,
                    eta_kernel, stehfest_weights, theta3)

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


def test_fresh_interpreter_imports_package_and_cli():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHECK],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where = os.path.realpath(proc.stdout.strip())
    assert where.startswith(os.path.realpath(SRC) + os.sep), where


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
], ids=["decreasing-boundaries", "sigma-count", "x0-on-boundary", "negative-T",
        "odd-stehfest", "fd-nx-3", "x0-outside-strip", "nome-1", "nan-phase", "eta-parity"])
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
