"""Find the checkout's source tree and import mlheat from it.

The benchmark always measures the code next to it: ``src/mlheat`` under
the directory that holds ``bench/``.  An installed copy elsewhere on the
path is never used.
"""

import os
import subprocess
import sys

# threads a BLAS or OpenMP runtime may start; pinned to one so that a run
# measures one client on one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout has no importable mlheat source tree."""


def pin_threads():
    """Set every thread-count variable to 1; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_dir(root):
    return os.path.join(root, "src")


def check_source(root):
    init = os.path.join(src_dir(root), "mlheat", "__init__.py")
    if not os.path.isfile(init):
        raise SourceMissing(f"no mlheat source tree at {os.path.dirname(init)}")


def plain_import_fails(root):
    """True when ``import mlheat`` fails in a fresh interpreter without the shim.

    numpy 2.4 removed ``np.trapz``, which ``mlheat.volterra`` reads at import
    time; the result is reported so that the defect stays visible.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mlheat"
    proc = subprocess.run([sys.executable, "-c", code, src_dir(root)],
                          cwd=root, capture_output=True, timeout=120)
    return proc.returncode != 0


def load(root, shim):
    """Import mlheat from ``root``/src, aliasing ``np.trapz`` first if asked."""
    import numpy as np

    if shim and not hasattr(np, "trapz"):
        np.trapz = np.trapezoid
    src = src_dir(root)
    sys.path.insert(0, src)
    import mlheat
    import mlheat.cli  # noqa: F401  (not imported by the package itself)

    where = os.path.realpath(mlheat.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SourceMissing(f"mlheat was imported from {where}, not from {src}")
    return mlheat


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}
