"""Module attributes imported on first lookup (PEP 562).

The method itself needs numpy only; scipy serves three reference paths
(the FD march, the ``dgtsv`` oracle and the numerical forward Laplace
transform).  Each of those modules names its scipy routine as a lazy
attribute, so ``import mlheat`` loads no scipy and a process pays for it
only when it calls one of them.  The first lookup imports the routine and
binds it as an ordinary global of the module, so later lookups cost a
dict access.  Library code calls the routine through the module
attribute, never through a name bound at import, so a caller that
replaces the attribute with ``setattr`` (a counting wrapper, say) sees
every call.
"""

import importlib
import sys


def lazy_attributes(module, **sources):
    """A module-level ``__getattr__`` for the module named ``module``.

    Each keyword ``name="package.module:attr"`` makes ``name`` an attribute
    of the module that imports ``attr`` from ``package.module`` on first
    lookup and binds it as the module's global ``name``.
    """

    def __getattr__(name):
        if name not in sources:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        path, _, attr = sources[name].partition(":")
        value = getattr(importlib.import_module(path), attr)
        setattr(sys.modules[module], name, value)
        return value

    return __getattr__
