"""The package and its CLI import in a fresh interpreter.

Within one pytest process a module that failed to import can hide behind
submodules already cached in ``sys.modules``; a new interpreter cannot.
"""

import os
import subprocess
import sys

import pytest

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
