"""Per-layer tracing of mlheat from outside the package.

``installed(mlheat)`` replaces the public functions of each mlheat module,
in every module that imported them by name, with wrappers that record a
span (name, start, end, parent span, request).  The scipy routines at the
layer boundaries are wrapped with call counters only.  Spans stay in
memory; ``Tracer.layer_metrics`` reduces them to per-layer call counts and
self time (a span's duration minus the time its child spans cover).

The wrappers record only while ``Tracer.request`` is set, so code the
benchmark runs between requests (input generation, output checks) is not
counted.
"""

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter

# public functions traced as spans named "<module>.<function>"
SPANS = {
    "laplace": ("stehfest_weights", "invert_laplace", "forward_laplace_numeric"),
    "layered": ("locate_source_layer", "assemble_system", "solve_tridiagonal",
                "laplace_field", "boundary_values", "greens_function"),
    "analytic": ("strip_green",),
    "special_functions": ("theta3", "theta3_dz", "theta3_dzz", "eta_kernel"),
    "fd": ("fd_solve",),
    "volterra": ("build_internal_boundaries", "git_kernel_set",
                 "solve_volterra_single_layer", "check_refinement",
                 "git_field_single_layer"),
    # cmd_* are main's bodies: their time is main's own
    "cli": ("main",),
}

# chart factories: the factory is one span, every callable of the chart it
# returns (and bk_affine_zcb) is "transforms.chart_eval"
CHART_FACTORIES = ("dupire_to_heat", "bk_layer_chart", "verhulst_chart",
                   "nondivergent_to_divergent")
CHART_BUILD = "transforms.chart_build"
CHART_EVAL = "transforms.chart_eval"

# scipy routines imported by name into one module: counted, not timed
COUNTERS = {("layered", "_dgtsv"): "layered.dgtsv.calls",
            ("fd", "solve_banded"): "fd.solve_banded.calls",
            ("transforms", "quad"): "transforms.quad.calls"}


def _computed(mlheat):
    """Work counts computed from a span's arguments, by span name.

    Each helper takes the arguments of the function it counts, with the
    same defaults.
    """
    order = mlheat.laplace.DEFAULT_ORDER

    def greens(problem, scheme=None, xs=None):
        # greens_function's defaults: the default Stehfest order, 101 points
        m = order if scheme is None else scheme.m
        nx = 101 if xs is None else len(xs)
        return {"layered.unknowns": m * (problem.medium.n_layers - 1),
                "layered.field_points": m * nx}

    def fd(problem, grid, u0=None):
        return {"fd.node_steps": grid.N_x * grid.M_t}

    def march(problem):
        # step k of the march sums over k history nodes
        return {"volterra.history_steps": problem.M * (problem.M + 1) // 2}

    return {"layered.greens_function": greens, "fd.fd_solve": fd,
            "volterra.solve_volterra_single_layer": march}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request]
        self.counts = Counter()
        self.request = None
        self._stack = []

    def span(self, name, fn, computed=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            if computed is not None:
                tracer.counts.update(computed(*args, **kwargs))
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                   tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def probe(self, name, fn, request):
        """Time ``fn()`` as one span with nothing traced inside it."""
        rec = [name, 0.0, 0.0, None, request]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        fn()
        rec[2] = time.perf_counter()

    def layer_metrics(self):
        """{"<span>.calls", "<span>.self_s", counters, computed counts}."""
        self_s = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _, _), c in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - c
        names = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
        names += [CHART_BUILD, CHART_EVAL]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in list(COUNTERS.values()) + ["layered.unknowns", "layered.field_points",
                                               "fd.node_steps", "volterra.history_steps"]:
            out[name] = self.counts[name]
        return out


def _wrap_chart(tracer, factory):
    build = tracer.span(CHART_BUILD, factory)

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        chart = build(*args, **kwargs)
        fields = {f.name: tracer.span(CHART_EVAL, getattr(chart, f.name))
                  for f in dataclasses.fields(chart) if callable(getattr(chart, f.name))}
        return dataclasses.replace(chart, **fields)

    return wrapper


def _mlheat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "mlheat" or name.startswith("mlheat.")]


@contextlib.contextmanager
def installed(mlheat):
    """Install a fresh Tracer's wrappers into mlheat; restore on exit."""
    tracer = Tracer()
    modules = _mlheat_modules()
    replaced = []

    def replace_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))

    computed = _computed(mlheat)
    try:
        for modname, fns in SPANS.items():
            mod = getattr(mlheat, modname)
            for fn in fns:
                name = f"{modname}.{fn}"
                original = getattr(mod, fn)
                replace_everywhere(original, tracer.span(name, original, computed.get(name)))
        transforms = mlheat.transforms
        for fn in CHART_FACTORIES:
            original = getattr(transforms, fn)
            replace_everywhere(original, _wrap_chart(tracer, original))
        replace_everywhere(transforms.bk_affine_zcb,
                           tracer.span(CHART_EVAL, transforms.bk_affine_zcb))
        for (modname, attr), name in COUNTERS.items():
            mod = getattr(mlheat, modname)
            original = getattr(mod, attr)
            setattr(mod, attr, tracer.counter(name, original))
            replaced.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)

