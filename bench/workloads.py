"""The three benchmark workloads: request streams and output checks.

A workload is an endless, deterministic stream of requests made from the
seed.  A request is one call into mlheat that a user would make; the
benchmark times the call and checks its output after the clock stops.

Streams repeat a fixed pattern of slots.  A panel slot takes the next
problem from a fixed list of problems with a closed form, cycled in a
seeded order.  The panel is the same for every seed, and every run covers
it, so ``max_rel_err`` compares code rather than draws.  Every other slot
draws a fresh problem from the seed; the sizes in those slots are
stratified, so that each run sees the same spread of sizes.
"""

import contextlib
import io
import itertools
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles

# the criterion-1 tolerance of the repository's acceptance gate
TOL = 5e-3
# errors below this are not resolved by the closed forms
RESOLUTION = 1e-12

# known defects: a failure of one of these classes counts in ``pass_ratio``
# but neither in the result's ``failed`` nor against ``correct``, and only on
# the requests that ``Workload.known`` names, where it is seen today; any
# other failure counts in ``failed`` and makes a run incorrect
KNOWN_DEFECTS = {
    "solve-accuracy": "the layered solve misses the closed form by more than 5e-3 "
                      "where T max(sigma_i^2 / h_i^2) >= 3e5 (ROADMAP item 1: "
                      "cancellation in the tridiagonal diagonal)",
    "solve-structure": "the layered solve breaks positivity or zero ends in the same "
                       "regime, on media without a closed form (ROADMAP item 1)",
    "cli-stdout-timing-line": "'green' without --out prints a precompute_ms= line "
                              "before the CSV (ROADMAP item 2)",
    "volterra-field-accuracy": "on a moving strip git_field_single_layer misses the "
                               "caloric polynomial by 1.8e-2 to 8.8e-2 while the "
                               "gradients are within TOL; the error does not fall with M",
    "volterra-max-principle": "the same field error on random moving strips: the field "
                              "leaves the range of the data by 0.5% to 3.7% of its scale",
}


@dataclass
class Verdict:
    """Outcome of one output check: a failure class or None, and an error
    against a closed form when the request has one."""

    failure: Optional[str] = None
    rel_err: Optional[float] = None


@dataclass
class Request:
    kind: str
    spec: dict
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    # untimed, before every call (the CLI's config and output files)
    prepare: Optional[Callable[[], None]] = None
    # a solve-only call on the same inputs, made in traced runs only
    probe: Optional[Callable[[], object]] = None


# ----------------------------------------------------------------------
# seeded draws
# ----------------------------------------------------------------------

def _key(name):
    return zlib.crc32(name.encode())


def _rng(seed, name, *more):
    return np.random.default_rng([seed, _key(name), *more])


def stratified(seed, name, n):
    """u in [0, 1): each block of n draws puts one in each of n strata."""
    for block in itertools.count():
        rng = _rng(seed, name, block)
        for k, jitter in zip(rng.permutation(n), rng.random(n)):
            yield (k + jitter) / n


def log_between(u, lo, hi):
    return lo * (hi / lo) ** u


def panel_order(seed, name, panel):
    for rnd in itertools.count():
        for k in _rng(seed, name, rnd).permutation(len(panel)):
            yield panel[k]


class Stream:
    """The requests of one workload in order, with panel coverage."""

    def __init__(self, workload):
        self._wl = workload
        self.seen = {kind: 0 for kind in workload.panels}

    @property
    def panel_covered(self):
        return all(self.seen[k] >= len(p) for k, p in self._wl.panels.items())

    def __iter__(self):
        wl = self._wl
        sources = {}
        for kind in wl.pattern:
            if kind not in sources:
                sources[kind] = (panel_order(wl.seed, f"{wl.name}.{kind}", wl.panels[kind])
                                 if kind in wl.panels else wl.seeded(kind))
        for i in itertools.count():
            kind = wl.pattern[i % len(wl.pattern)]
            spec = next(sources[kind])
            if kind in self.seen:
                self.seen[kind] += 1
            yield wl.build(kind, spec)


class Workload:
    name = ""
    pattern = ()
    panels = {}
    # a timed run ends on a multiple of this many requests (default: one
    # cycle of the pattern)
    unit = None
    # requests per second planned for the traced pass (sizes it, not a limit)
    plan_rate = 1.0

    def __init__(self, seed, mlheat, workdir):
        self.seed = seed
        self.mh = mlheat
        self.workdir = workdir

    def requests(self):
        return Stream(self)

    def trace_size(self, seconds):
        """Requests in each of the three passes of a traced run: whole cycles."""
        cycle = len(self.pattern)
        return cycle * max(1, round(self.plan_rate * seconds / 4.0 / cycle))

    def seeded(self, kind):
        raise NotImplementedError

    def build(self, kind, spec):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def known(self, req, failure):
        """True when ``failure`` of ``req`` is a known defect in its known scope."""
        return False


# ----------------------------------------------------------------------
# layered media and field checks
# ----------------------------------------------------------------------

def piecewise_layers(spec):
    """Boundaries and sigmas of a random piecewise medium from its spec."""
    rng = np.random.default_rng(spec["medium_seed"])
    n = spec["N"]
    w = rng.uniform(0.5, 1.5, n)
    b = spec["y0"] + spec["L"] * np.concatenate(([0.0], np.cumsum(w) / w.sum()))
    b[-1] = spec["y0"] + spec["L"]
    return b, rng.uniform(0.3, 1.2, n)


def piecewise_specs(seed, name, sizes, sources, horizons, t_range):
    """Random media, each used for sources x horizons problems."""
    rng = _rng(seed, name)
    while True:
        medium = {"medium": "piecewise", "N": int(next(sizes)),
                  "medium_seed": int(rng.integers(2 ** 31)),
                  "y0": float(rng.uniform(-2.0, 0.0)), "L": float(rng.uniform(1.0, 4.0))}
        for frac in rng.uniform(0.05, 0.95, sources):
            for T in log_between(rng.random(horizons), *t_range):
                yield dict(medium, x0=medium["y0"] + float(frac) * medium["L"], T=float(T))


def uniform_panel(sizes, sigmas, horizons, sources):
    return [{"medium": "uniform", "N": n, "sigma": s, "T": t, "x0": x0,
             "y0": -1.0, "yN": 1.0}
            for n in sizes for s in sigmas for t in horizons for x0 in sources]


def structure_failure(u):
    """Zero Dirichlet ends and positivity, each to TOL of the peak.

    Mass <= 1 is not checked: on a 101-point grid the trapezoid rule misses
    the mass of a narrow profile by more than TOL.
    """
    peak = float(np.max(np.abs(u)))
    if max(abs(u[0]), abs(u[-1])) > TOL * peak or -float(np.min(u)) > TOL * peak:
        return "solve-structure"
    return None


def check_profile(u, xs, exact):
    """Verdict for a Green's function profile u on xs (exact may be None)."""
    u = np.asarray(u, dtype=float)
    if u.shape != xs.shape:
        return Verdict("solve-shape")
    if not np.all(np.isfinite(u)):
        return Verdict("solve-non-finite")
    if exact is not None:
        err = oracles.rel_err(u, exact)
        if err > TOL:
            return Verdict("solve-accuracy", err)
        return Verdict(structure_failure(u), err)
    return Verdict(structure_failure(u))


# ROADMAP item 1: the tridiagonal diagonal loses its excess to rounding
# when the layers are thin against the diffusion length, that is when
# T max(sigma_i^2 / h_i^2) is large.  The N = 2000 panel misses TOL from
# 3.6e5 on (sigma 0.6 and 1 at T = 1) and passes up to 1e5; every N = 20000
# problem lies above 9e5.
THIN_RATIO = 3e5


def thinness(spec):
    """T max(sigma_i^2 / h_i^2) of a layered problem's medium."""
    if spec["medium"] == "uniform":
        return spec["T"] * (spec["sigma"] * spec["N"] / (spec["yN"] - spec["y0"])) ** 2
    b, sigmas = piecewise_layers(spec)
    return spec["T"] * float(np.max((sigmas / np.diff(b)) ** 2))


class GreenLarge(Workload):
    """N 2000 and 20000 on 1001 points: assembly, dgtsv and field evaluation."""

    name = "green_large"
    nx = 1001
    # three N=2000 requests to one N=20000, so that p50 and p90 fall inside
    # the two size classes rather than on the edge between them
    pattern = ("p2000", "s2000", "p2000", "s2000", "p2000", "s2000", "p20000", "s20000")
    panels = {f"p{n}": uniform_panel((n,), (0.3, 0.6, 1.0), (0.1, 1.0), (-0.512873, 0.053719))
              for n in (2000, 20000)}
    plan_rate = 25.0

    def __init__(self, seed, mlheat, workdir):
        super().__init__(seed, mlheat, workdir)
        self.scheme = mlheat.laplace.stehfest_weights()
        self._oracle = {}
        self._medium = (None, None)

    def seeded(self, kind):
        n = int(kind[1:])
        return piecewise_specs(self.seed, f"green_large.{kind}", itertools.repeat(n),
                               2, 1, (0.05, 2.0))

    def warmup(self):
        spec = next(piecewise_specs(self.seed, "green_large.warmup", iter([2000]), 1, 1,
                                    (0.05, 2.0)))
        return self.build("s2000", spec)

    def known(self, req, failure):
        return (failure in ("solve-accuracy", "solve-structure")
                and thinness(req.spec) >= THIN_RATIO)

    def medium(self, spec):
        layered = self.mh.layered
        if spec["medium"] == "uniform":
            return layered.LayeredMedium.uniform(spec["y0"], spec["yN"],
                                                 np.full(spec["N"], spec["sigma"]))
        key = (spec["medium_seed"], spec["N"])
        if self._medium[0] != key:
            self._medium = (key, layered.LayeredMedium(*piecewise_layers(spec)))
        return self._medium[1]

    def exact(self, spec, xs):
        if spec["medium"] != "uniform":
            return None
        key = json.dumps(spec, sort_keys=True)
        if key not in self._oracle:
            self._oracle[key] = oracles.strip_green(spec["y0"], spec["yN"], spec["sigma"],
                                                    spec["x0"], spec["T"], xs)
        return self._oracle[key]

    def build(self, kind, spec):
        layered = self.mh.layered
        problem = layered.GreensProblem(self.medium(spec), spec["x0"], spec["T"])
        b = problem.medium.boundaries
        xs = np.linspace(b[0], b[-1], self.nx)

        def check(field):
            if not np.array_equal(field.xs, xs):
                return Verdict("solve-grid")
            return check_profile(field.values, xs, self.exact(spec, xs))

        return Request(kind, spec,
                       lambda: layered.greens_function(problem, scheme=self.scheme, xs=xs),
                       check, probe=lambda: layered.boundary_values(problem, self.scheme))


# ----------------------------------------------------------------------
# Volterra march
# ----------------------------------------------------------------------

FIELD_FRACTIONS = (0.25, 0.5, 0.75)
# on moving strips the field misses the caloric panel by up to 8.8e-2 and
# leaves the data range by up to 3.7e-2 of its scale, at any M; a larger
# error is not the known defect
FIELD_ERROR_SEEN = 0.1


def _caloric(c, y0, v_lo, v_hi, T, M):
    return {"c": c, "y0": y0, "v_lo": v_lo, "v_hi": v_hi, "T": T, "M": M}


class VolterraMarch(Workload):
    """Moving-strip marches plus two panels with a closed form."""

    name = "volterra_march"
    pattern = ("moving", "moving", "moving", "fixed", "caloric") * 2
    # 50 requests hold each panel once and five strata blocks of M, so that
    # every run has the same mix of sizes; the tail of the latencies is
    # made of few, large requests, and a partial round of the panels moves p90
    unit = 50
    panels = {
        # criterion 9: the strip_green profile at t0 marched to T on [0, 1];
        # the data are 0, so no history term of the march is exercised
        "fixed": [{"x0": x0, "t0": t0, "T": T, "M": M} for x0, t0, T, M in (
            (0.30, 0.05, 0.55, 200), (0.50, 0.05, 0.45, 150), (0.20, 0.08, 0.50, 110),
            (0.70, 0.05, 0.35, 80), (0.40, 0.10, 0.60, 60), (0.15, 0.05, 0.30, 45),
            (0.85, 0.06, 0.40, 35), (0.60, 0.12, 0.50, 25), (0.45, 0.07, 0.50, 130),
            (0.25, 0.10, 0.40, 70))],
        # caloric polynomials on strips [y0 + v_lo t, y0 + 1 + v_hi t] with
        # their own values as the Dirichlet data: every history term of the
        # march is exercised, and the gradients and the field are exact
        "caloric": [
            _caloric((0.0, 0.0, 0.0, 1.0), 0.0, 0.0, 0.0, 0.3, 200),
            _caloric((0.5, 0.3, 1.0, -0.7), 0.0, 0.0, 0.0, 0.7, 200),
            _caloric((0.0, 0.0, 1.0, 0.0), 0.0, 0.0, 0.0, 0.3, 100),
            _caloric((1.0, -0.4, 0.5, 0.8), -0.5, 0.0, 0.0, 0.4, 150),
            _caloric((0.0, 0.0, 0.0, 1.0), -0.5, 0.15, 0.15, 0.3, 50),
            _caloric((0.0, 0.0, 0.0, 1.0), 0.0, 0.1, -0.2, 0.3, 100),
            _caloric((0.5, 0.3, 1.0, -0.7), 0.2, -0.2, 0.3, 0.3, 25),
            _caloric((0.0, 0.0, 0.0, 1.0), 0.2, -0.2, 0.3, 0.7, 200),
            _caloric((0.2, 1.0, -0.5, 0.3), 0.3, 0.0, 0.0, 0.5, 180),
            _caloric((1.0, 0.0, 0.5, 0.5), 0.0, 0.2, 0.1, 0.5, 70),
        ],
    }
    plan_rate = 4.0

    def seeded(self, kind):
        sizes = stratified(self.seed, "volterra.M", 6)
        rng = _rng(self.seed, "volterra.moving")
        while True:
            yield {"M": int(round(log_between(next(sizes), 25, 200))),
                   "T": float(rng.uniform(0.3, 0.8)),
                   "v_lo": float(rng.uniform(-0.2, 0.2)), "v_hi": float(rng.uniform(-0.3, 0.3)),
                   "a": float(rng.uniform(0.0, 0.3)), "b": float(rng.uniform(-0.2, 0.2)),
                   "A": float(rng.uniform(0.5, 1.5)),
                   "c_lo": float(rng.uniform(-0.2, 0.2)), "c_hi": float(rng.uniform(-0.2, 0.2))}

    def warmup(self):
        return self.build("moving", {"M": 25, "T": 0.5, "v_lo": 0.0, "v_hi": 0.2, "a": 0.1,
                                     "b": 0.1, "A": 1.0, "c_lo": 0.0, "c_hi": 0.1})

    def known(self, req, failure):
        if req.kind == "moving":
            return failure == "volterra-max-principle"
        # on the fixed caloric strips the field is within TOL today
        return (req.kind == "caloric" and failure == "volterra-field-accuracy"
                and (req.spec["v_lo"], req.spec["v_hi"]) != (0.0, 0.0))

    def build(self, kind, spec):
        volterra = self.mh.volterra
        analytic = self.mh.analytic
        s = spec
        if kind == "fixed":
            x0, t0 = s["x0"], s["t0"]
            start = analytic.StripProblem(0.0, 1.0, 1.0, x0, t0)
            problem = volterra.GitLayerProblem(
                y_minus=0.0, y_plus=1.0, chi_minus=0.0, chi_plus=0.0,
                u0=lambda x: analytic.strip_green(start, x), T=s["T"] - t0, M=s["M"])
            points = FIELD_FRACTIONS
        elif kind == "caloric":
            def end(y, v):
                return lambda t: y + v * np.asarray(t, dtype=float)

            lo_end, hi_end = end(s["y0"], s["v_lo"]), end(s["y0"] + 1.0, s["v_hi"])
            problem = volterra.GitLayerProblem(
                y_minus=lo_end, y_plus=hi_end,
                chi_minus=lambda t: oracles.caloric(s["c"], lo_end(t), t),
                chi_plus=lambda t: oracles.caloric(s["c"], hi_end(t), t),
                u0=lambda x: oracles.caloric(s["c"], x, 0.0), T=s["T"], M=s["M"])
            lo, hi = float(lo_end(s["T"])), float(hi_end(s["T"]))
            points = tuple(lo + f * (hi - lo) for f in FIELD_FRACTIONS)
        else:
            problem = volterra.GitLayerProblem(
                y_minus=lambda t: s["v_lo"] * np.asarray(t, dtype=float),
                y_plus=lambda t: 1.0 + s["v_hi"] * np.asarray(t, dtype=float),
                chi_minus=lambda t: s["a"] + s["c_lo"] * np.asarray(t, dtype=float),
                chi_plus=lambda t: s["a"] + s["b"] + s["c_hi"] * np.asarray(t, dtype=float),
                u0=lambda x: s["a"] + s["b"] * x + s["A"] * np.sin(np.pi * x),
                T=s["T"], M=s["M"])
            lo = s["v_lo"] * s["T"]
            hi = 1.0 + s["v_hi"] * s["T"]
            points = tuple(lo + f * (hi - lo) for f in FIELD_FRACTIONS)

        def call():
            g = volterra.solve_volterra_single_layer(problem)
            return g, [volterra.git_field_single_layer(problem, g, x, problem.T) for x in points]

        check = getattr(self, f"_check_{kind}")
        return Request(kind, spec, call, lambda out: check(spec, points, out))

    @staticmethod
    def _finite(g, values, M):
        return (len(g.omega) == M + 1 and np.all(np.isfinite(g.omega))
                and np.all(np.isfinite(g.theta)) and np.all(np.isfinite(values)))

    def _check_fixed(self, spec, points, out):
        g, values = out
        if not self._finite(g, values, spec["M"]):
            return Verdict("volterra-non-finite")
        left, right = oracles.strip_green_end_slopes(0.0, 1.0, 1.0, spec["x0"], spec["T"])
        # omega = -du/dx at the left end, theta = +du/dx at the right end
        err = max(abs(g.omega[-1] + left) / abs(left), abs(g.theta[-1] - right) / abs(right),
                  oracles.rel_err(values, oracles.strip_green(
                      0.0, 1.0, 1.0, spec["x0"], spec["T"], points)))
        return Verdict("volterra-accuracy" if err > TOL else None, err)

    def _check_caloric(self, spec, points, out):
        g, values = out
        if not self._finite(g, values, spec["M"]):
            return Verdict("volterra-non-finite")
        c, T = spec["c"], spec["T"]
        left = oracles.caloric_dx(c, spec["y0"] + spec["v_lo"] * T, T)
        right = oracles.caloric_dx(c, spec["y0"] + 1.0 + spec["v_hi"] * T, T)
        # one scale for both ends: an end slope may be near 0
        grad_err = max(abs(g.omega[-1] + left), abs(g.theta[-1] - right)) / max(abs(left),
                                                                                abs(right))
        field_err = oracles.rel_err(values, oracles.caloric(c, np.array(points), T))
        err = max(grad_err, field_err)
        if grad_err > TOL or field_err > FIELD_ERROR_SEEN:
            return Verdict("volterra-accuracy", err)
        return Verdict("volterra-field-accuracy" if field_err > TOL else None, err)

    def _check_moving(self, spec, points, out):
        g, values = out
        if not self._finite(g, values, spec["M"]):
            return Verdict("volterra-non-finite")
        # maximum principle: interior values lie within the range of the
        # initial and boundary data
        s = spec
        xs = np.linspace(0.0, 1.0, 201)
        ts = np.linspace(0.0, s["T"], 201)
        data = np.concatenate([s["a"] + s["b"] * xs + s["A"] * np.sin(np.pi * xs),
                               s["a"] + s["c_lo"] * ts, s["a"] + s["b"] + s["c_hi"] * ts])
        lo, hi = float(data.min()), float(data.max())
        excess = max(lo - min(values), max(values) - hi) / max(abs(lo), abs(hi))
        if excess > FIELD_ERROR_SEEN:
            return Verdict("volterra-out-of-range")
        return Verdict("volterra-max-principle" if excess > TOL else None)


# ----------------------------------------------------------------------
# CLI batch
# ----------------------------------------------------------------------

def parse_csv(text):
    """(header, rows) of a CSV the CLI writes; ValueError if it is not one."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("ragged rows")
    return header, rows


def transform_name(kind):
    """The transform a CLI slot runs: "bk_11" runs "bk"."""
    return kind.partition("_")[0]


def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue()


def _column_errors(rows, columns):
    """Largest rel_err over (column index, exact values) pairs."""
    return max(oracles.rel_err(rows[:, j], exact) for j, exact in columns)


# Samples per transform request.  A chart is lazy: every sample runs its
# own adaptive quadratures (about 0.15 s for bk and 0.19 s for verhulst),
# while a precomputed chart would pay once per chart and little per sample.
# bk therefore runs on both sides of that trade: at 2 samples, the chart's
# two ends, and at 11, where it takes about 1.6 s on a 2-core machine.
# verhulst runs at 2 samples; dupire (11) and divergent (9) take the sample
# counts of their CLI tests.  The CLI default of 41 would make a bk request
# 6 s, a fifth of a run.
SAMPLES = {"bk": 2, "bk_11": 11, "verhulst": 2, "dupire": 11, "divergent": 9}


class CliBatch(Workload):
    """In-process ``mlheat.cli.main`` on generated JSON configs."""

    name = "cli_batch"
    # 6 compare, 3 green (one to stdout), 2 boundaries, 2 bk at 2 samples,
    # 1 bk at 11 and one each of the other three charts.  Runs end on whole
    # cycles of the pattern, so the slowest 4 in 17 (bk_11, verhulst and
    # the two short bk) put p90 among verhulst requests, and p50 falls
    # among the compare requests.
    pattern = ("compare_p", "green_p", "compare_s", "boundaries", "bk", "dupire",
               "compare_p", "green_stdout", "divergent", "compare_s", "verhulst", "green_s",
               "compare_p", "boundaries", "bk", "compare_p", "bk_11")
    panels = {
        "compare_p": [
            dict(spec, x0=(-0.317153, 0.053719, 0.412937)[(i // 3) % 3],
                 N_x=max((201, 401, 601, 801)[i % 4], 401 if spec["N"] > 100 else 0),
                 M_t=(100, 200, 400, 800)[(i // 4) % 4])
            for i, spec in enumerate(uniform_panel((20, 50, 100, 200), (0.3, 0.8),
                                                   (0.001, 0.03, 1.0), (0.0,)))],
        "green_p": [
            dict(spec, grid=(101, 201, 401)[i % 3], x0=(-0.409367, 0.053719, 0.312941, 0.603711)[i % 4],
                 T=(0.02, 0.5, 1.5)[(i // 2) % 3])
            for i, spec in enumerate(uniform_panel((20, 60, 120, 200), (0.4, 0.9),
                                                   (0.0,), (0.0,)))],
    }
    plan_rate = 7.0

    def __init__(self, seed, mlheat, workdir):
        super().__init__(seed, mlheat, workdir)
        self.config_path = os.path.join(workdir, "config.json")
        self.out_path = os.path.join(workdir, "out.csv")

    def seeded(self, kind):
        rng = _rng(self.seed, f"cli.{kind}")
        if kind == "compare_s":
            sizes = stratified(self.seed, "cli.compare_s.N", 8)
            grids = stratified(self.seed, "cli.compare_s.grid", 8)
            steps = stratified(self.seed, "cli.compare_s.steps", 8)
            while True:
                n = int(round(10 + 50 * next(sizes)))
                # layers at least 2 FD nodes wide, so that no two snap together
                nx = int(6 * n + 1 + next(grids) * (800 - 6 * n))
                yield {"medium": "piecewise", "N": n, "medium_seed": int(rng.integers(2 ** 31)),
                       "y0": float(rng.uniform(-1.5, -0.5)), "L": float(rng.uniform(1.5, 3.0)),
                       "frac": float(rng.uniform(0.1, 0.9)),
                       "T": float(log_between(rng.random(), 0.003, 1.0)),
                       "N_x": nx, "M_t": int(100 + 700 * next(steps))}
        elif kind in ("green_s", "green_stdout"):
            sizes = stratified(self.seed, f"cli.{kind}.N", 6)
            while True:
                yield {"medium": "piecewise", "N": int(round(log_between(next(sizes), 20, 200))),
                       "medium_seed": int(rng.integers(2 ** 31)),
                       "y0": float(rng.uniform(-2.0, 0.0)), "L": float(rng.uniform(1.0, 4.0)),
                       "frac": float(rng.uniform(0.05, 0.95)),
                       "T": float(log_between(rng.random(), 0.01, 2.0)),
                       "grid": int(rng.integers(51, 402))}
        elif kind == "boundaries":
            while True:
                quadratic = bool(rng.random() < 0.5)
                cp = [float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.15, 0.15))]
                if quadratic:
                    cp.append(float(rng.uniform(-0.05, 0.05)))
                yield {"chi_minus": [float(rng.uniform(-0.5, 0.0)), float(rng.uniform(-0.15, 0.15))],
                       "chi_plus": cp, "N": int(rng.integers(3, 11)),
                       "degree": int(rng.integers(2 if quadratic else 1, 4)),
                       "T": float(rng.uniform(0.5, 2.0))}
        elif kind == "dupire":
            while True:
                yield {"r": float(rng.uniform(0.0, 0.05)), "q": float(rng.uniform(0.0, 0.03)),
                       "v": float(rng.uniform(0.01, 0.09)), "T": float(rng.uniform(0.5, 2.0)),
                       "state": float(rng.uniform(50.0, 150.0)), "samples": SAMPLES[kind]}
        elif kind == "divergent":
            while True:
                a, c1, c2 = (float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(-0.5, 0.5)))
                z_min = c2 - float(rng.uniform(0.0, 0.4)) * c1 / a
                yield {"xi": {"kind": "exp", "a": a}, "c1": c1, "c2": c2, "z_min": z_min,
                       "z_max": z_min + float(rng.uniform(1.0, 3.0)), "samples": SAMPLES[kind]}
        elif kind in ("bk", "bk_11"):
            while True:
                yield {"kappa": float(rng.uniform(0.2, 1.0)), "theta": float(rng.uniform(0.01, 0.05)),
                       "sigma": float(rng.uniform(0.1, 0.3)), "s": float(rng.uniform(0.0, 0.02)),
                       "a": float(rng.uniform(0.0, 0.02)), "b": float(rng.uniform(0.5, 1.5)),
                       "S": float(rng.uniform(1.5, 2.5)), "z": float(rng.uniform(-0.5, 0.5)),
                       "R": float(rng.uniform(0.01, 0.05)), "samples": SAMPLES[kind]}
        elif kind == "verhulst":
            while True:
                n = int(rng.integers(2, 7))
                yield {"kappa": float(rng.uniform(0.2, 1.0)), "theta": float(rng.uniform(0.01, 0.05)),
                       "sigma": float(rng.uniform(0.1, 0.3)), "s": float(rng.uniform(0.0, 0.02)),
                       "R": float(rng.uniform(0.01, 0.05)), "N": n, "i": int(rng.integers(0, n)),
                       "L": float(rng.uniform(0.8, 1.5)), "horizon": float(rng.uniform(1.5, 2.5)),
                       "state": float(rng.uniform(0.2, 0.8)), "samples": SAMPLES[kind]}
        else:
            raise ValueError(f"no seeded slot {kind!r}")

    def warmup(self):
        spec = next(self.seeded("green_s"))
        return self.build("green_s", spec)

    def known(self, req, failure):
        return failure == "cli-stdout-timing-line" and req.kind == "green_stdout"

    # -- configs ---------------------------------------------------------

    @staticmethod
    def _problem_block(spec):
        if spec["medium"] == "uniform":
            return ({"y0": spec["y0"], "yN": spec["yN"], "sigma": spec["sigma"],
                     "x0": spec["x0"], "T": spec["T"]}, {"m": 16, "layers": spec["N"]})
        b, sigmas = piecewise_layers(spec)
        return ({"boundaries": b.tolist(), "sigmas": sigmas.tolist(),
                 "x0": spec["y0"] + spec["frac"] * spec["L"], "T": spec["T"]}, {"m": 16})

    def _config(self, kind, spec):
        """(argv, config) for one request."""
        if kind.startswith("compare"):
            problem, solver = self._problem_block(spec)
            return ["compare"], {"problem": problem, "solver": solver,
                                 "fd": {"N_x": spec["N_x"], "M_t": spec["M_t"]}}
        if kind.startswith("green"):
            problem, solver = self._problem_block(spec)
            return ["green"], {"problem": problem, "solver": solver,
                               "eval": {"grid": spec["grid"]}}
        if kind == "boundaries":
            return ["boundaries"], dict(spec)
        return ["transform", transform_name(kind)], spec

    def build(self, kind, spec):
        command, config = self._config(kind, spec)
        argv = command + ["--config", self.config_path]
        to_stdout = kind == "green_stdout"
        if not to_stdout:
            argv += ["--out", self.out_path]
        cli = self.mh.cli

        def prepare():
            with open(self.config_path, "w") as fh:
                json.dump(config, fh)
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out_path)

        def check(out):
            rc, stdout = out
            if rc != 0:
                return Verdict(f"cli-exit-{rc}")
            text = stdout
            if not to_stdout:
                try:
                    with open(self.out_path) as fh:
                        text = fh.read()
                except OSError:
                    return Verdict("cli-no-output")
            try:
                return self._check_output(kind, spec, config, text)
            except ValueError:
                return Verdict("cli-csv")

        return Request(kind, spec, lambda: run_cli(cli.main, argv), check, prepare=prepare)

    # -- output checks ---------------------------------------------------

    def _check_output(self, kind, spec, config, text):
        if kind == "green_stdout":
            first, _, rest = text.partition("\n")
            if first.startswith("precompute_ms="):
                verdict = self._check_green(spec, config, rest)
                return Verdict("cli-stdout-timing-line" if verdict.failure is None
                               else verdict.failure, verdict.rel_err)
            return self._check_green(spec, config, text)
        if kind.startswith("green"):
            return self._check_green(spec, config, text)
        if kind.startswith("compare"):
            return self._check_compare(spec, config, text)
        header, rows = parse_csv(text)
        return getattr(self, f"_check_{transform_name(kind)}")(spec, header, rows)

    @staticmethod
    def _grid(config, n):
        p = config["problem"]
        if "boundaries" in p:
            return np.linspace(p["boundaries"][0], p["boundaries"][-1], n)
        return np.linspace(p["y0"], p["yN"], n)

    @staticmethod
    def _exact(spec, xs):
        if spec["medium"] != "uniform":
            return None
        return oracles.strip_green(spec["y0"], spec["yN"], spec["sigma"], spec["x0"], spec["T"], xs)

    def _check_green(self, spec, config, text):
        header, rows = parse_csv(text)
        xs = self._grid(config, spec["grid"])
        if header != ["x", "u"] or rows.shape[0] != len(xs) or not np.array_equal(rows[:, 0], xs):
            return Verdict("cli-csv")
        return check_profile(rows[:, 1], xs, self._exact(spec, xs))

    def _check_compare(self, spec, config, text):
        header, rows = parse_csv(text)
        xs = self._grid(config, spec["N_x"])
        uniform = spec["medium"] == "uniform"
        expected = ["x", "u_ml", "u_fd"] + (["u_analytic"] if uniform else []) + ["rel_diff_pct"]
        if header != expected or rows.shape[0] != len(xs) or not np.array_equal(rows[:, 0], xs):
            return Verdict("cli-csv")
        ml, fd, rel = rows[:, 1], rows[:, 2], rows[:, -1]
        if not np.all(np.isfinite(fd)):
            return Verdict("fd-non-finite")
        if not np.allclose(rel, 100.0 * (fd - ml) / np.max(np.abs(ml)), rtol=1e-12, atol=1e-12):
            return Verdict("cli-rel-diff")
        verdict = check_profile(ml, xs, self._exact(spec, xs))
        if uniform:
            err = oracles.rel_err(rows[:, 3], self._exact(spec, xs))
            if err > TOL:
                return Verdict("strip_green-accuracy", max(err, verdict.rel_err))
            verdict.rel_err = max(err, verdict.rel_err)
        return verdict

    @staticmethod
    def _chart_verdict(err):
        return Verdict("chart-accuracy" if err > TOL else None, err)

    def _check_boundaries(self, spec, header, rows):
        n, T = spec["N"], spec["T"]
        ts = np.linspace(0.0, T, 200)
        if header != ["t"] + [f"y_{i}" for i in range(1, n)] or rows.shape[0] != 200 \
                or not np.array_equal(rows[:, 0], ts):
            return Verdict("cli-csv")
        poly = np.polynomial.polynomial.polyval
        cm, cp = poly(ts, spec["chi_minus"]), poly(ts, spec["chi_plus"])
        exact = cm[:, None] + (np.arange(1, n) / n)[None, :] * (cp - cm)[:, None]
        err = float(np.max(np.abs(rows[:, 1:] - exact)) / np.max(cp - cm))
        return self._chart_verdict(err)

    def _check_dupire(self, spec, header, rows):
        ts = np.linspace(0.0, spec["T"], spec["samples"])
        if header != ["t", "tau", "x", "multiplier"] or not np.array_equal(rows[:, 0], ts):
            return Verdict("cli-csv")
        tau, x, mult = oracles.dupire_columns(spec["r"], spec["q"], spec["v"], spec["state"], ts)
        return self._chart_verdict(_column_errors(rows, [(1, tau), (2, x), (3, mult)]))

    def _check_bk(self, spec, header, rows):
        s = spec
        ts = np.linspace(0.0, s["S"], s["samples"])
        if header != ["t", "tau", "x", "multiplier", "F"] or not np.array_equal(rows[:, 0], ts):
            return Verdict("cli-csv")
        if not (np.all(np.isfinite(rows)) and np.all(rows[:, 3] > 0.0)):
            return Verdict("chart-non-finite")
        tau, F = oracles.bk_columns(s["kappa"], s["theta"], s["sigma"], s["s"], s["a"], s["b"],
                                    s["S"], s["z"], s["R"], ts)
        return self._chart_verdict(_column_errors(rows, [(1, tau), (4, F)]))

    def _check_verhulst(self, spec, header, rows):
        s = spec
        ts = np.linspace(0.0, s["horizon"], s["samples"])
        if header != ["t", "tau", "x", "multiplier", "nu"] or not np.array_equal(rows[:, 0], ts):
            return Verdict("cli-csv")
        if not (np.all(np.isfinite(rows)) and np.all(rows[:, 3] > 0.0)):
            return Verdict("chart-non-finite")
        tau, nu = oracles.verhulst_columns(s["kappa"], s["theta"], s["sigma"], s["i"], s["N"],
                                           s["L"], s["horizon"], ts)
        return self._chart_verdict(_column_errors(rows, [(1, tau), (4, nu)]))

    def _check_divergent(self, spec, header, rows):
        zs = np.linspace(spec["z_min"], spec["z_max"], spec["samples"])
        if header != ["z", "x_of_z", "sigma_sq"] or not np.array_equal(rows[:, 0], zs):
            return Verdict("cli-csv")
        x, sig2 = oracles.divergent_columns(spec["xi"]["a"], spec["c1"], spec["c2"], zs)
        return self._chart_verdict(_column_errors(rows, [(1, x), (2, sig2)]))


WORKLOADS = {w.name: w for w in (GreenLarge, VolterraMarch, CliBatch)}
