"""Command-line interface: JSON configs in, CSV tables out.

Subcommands: ``green`` (layered Green's function on a grid), ``compare``
(layered solve vs. finite differences, with the analytic reference when
the medium is uniform), ``transform`` (sample a model-to-heat chart), and
``boundaries`` (polynomial interior boundaries for a moving strip).  Each
takes ``--config`` and ``--out`` only: every setting comes from the config.

Exit codes: 0 success, 2 configuration error (any ``ConfigError``), 3
numerical failure (any ``NumericalError``).
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from .analytic import StripProblem, strip_green
from .errors import ConfigError, NumericalError
from .fd import FdGrid, fd_solve
from .laplace import DEFAULT_ORDER, stehfest_weights
from .layered import GreensProblem, LayeredMedium, greens_function
from .transforms import (Curve, TermStructure, _as_curve, bk_layer_chart, dupire_to_heat,
                         nondivergent_to_divergent, verhulst_chart)
from .volterra import build_internal_boundaries


def _write_csv(path, columns):
    """Write a dict of equal-length named columns as CSV to ``path`` or stdout.

    Each value is written as repr of a Python float, the shortest
    round-trip decimal (<= 17 significant digits); a column is converted
    to floats once, not value by value.
    """
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns.values()]
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _floats(value):
    """A number or a list of numbers as an at least 1-D float array."""
    return np.atleast_1d(np.asarray(value, dtype=float))


def _as(kind, value, what):
    """``kind(value)``, kind being float, int or ``_floats``; a value it
    cannot convert is a ConfigError, never Python's own exception."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {value!r}: {exc}") from exc


def _check_keys(block, allowed, where):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require_keys(block, required, where):
    for key in required:
        if key not in block:
            raise ConfigError(f"missing {key!r} in {where}")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _build_problem(cfg):
    """GreensProblem and Stehfest order from the config's problem/solver blocks."""
    _check_keys(cfg, ("problem", "solver", "fd", "eval", "output"), "config")
    prob = cfg.get("problem")
    if not isinstance(prob, dict):
        raise ConfigError("config must contain a 'problem' object")
    _check_keys(prob, ("boundaries", "y0", "yN", "sigmas", "sigma", "x0", "T"), "problem")
    solver = cfg.get("solver", {})
    _check_keys(solver, ("m", "layers"), "solver")

    layers = solver.get("layers")
    if layers is not None:
        layers = _as(int, layers, "solver.layers")
    if "boundaries" in prob:
        boundaries = _as(_floats, prob["boundaries"], "problem.boundaries")
        if layers is not None and layers != len(boundaries) - 1:
            raise ConfigError(
                f"layers={layers} contradicts the {len(boundaries) - 1}-layer 'boundaries' list"
            )
    else:
        _require_keys(prob, ("y0", "yN"), "problem without 'boundaries'")
        _require_keys(solver, ("layers",), "solver for a uniform split")
        boundaries = np.linspace(_as(float, prob["y0"], "problem.y0"),
                                 _as(float, prob["yN"], "problem.yN"), max(layers, 0) + 1)

    if "sigmas" in prob:
        sigmas = _as(_floats, prob["sigmas"], "problem.sigmas")
    elif "sigma" in prob:
        sigmas = np.full(max(len(boundaries) - 1, 0), _as(float, prob["sigma"], "problem.sigma"))
    else:
        raise ConfigError("problem needs 'sigmas' (per layer) or a scalar 'sigma'")
    _require_keys(prob, ("x0", "T"), "problem")

    medium = LayeredMedium(boundaries=boundaries, sigmas=sigmas)
    green = GreensProblem(medium=medium, x0=_as(float, prob["x0"], "problem.x0"),
                          T=_as(float, prob["T"], "problem.T"))
    return green, _as(int, solver.get("m", DEFAULT_ORDER), "solver.m")


def _eval_grid(cfg, medium):
    block = cfg.get("eval", {})
    _check_keys(block, ("grid", "abscissas"), "eval")
    if "abscissas" in block:
        return _as(_floats, block["abscissas"], "eval.abscissas")
    n = _as(int, block.get("grid", 101), "eval.grid")
    if n < 1:
        raise ConfigError(f"eval grid must have at least 1 point, got {n}")
    return np.linspace(medium.boundaries[0], medium.boundaries[-1], n)


def cmd_green(args):
    cfg = _load_config(args.config)
    problem, m = _build_problem(cfg)
    xs = _eval_grid(cfg, problem.medium)
    t0 = time.perf_counter()
    scheme = stehfest_weights(m)
    t1 = time.perf_counter()
    fld = greens_function(problem, scheme=scheme, xs=xs)
    t2 = time.perf_counter()
    print(f"precompute_ms={(t1 - t0) * 1e3:.3f} solve_ms={(t2 - t1) * 1e3:.3f}", file=sys.stderr)
    _write_csv(args.out or cfg.get("output"), {"x": xs, "u": fld.values})
    return 0


def cmd_compare(args):
    cfg = _load_config(args.config)
    problem, m = _build_problem(cfg)
    fd_block = cfg.get("fd", {})
    _check_keys(fd_block, ("N_x", "M_t"), "fd")
    _require_keys(fd_block, ("N_x", "M_t"), "fd")
    scheme = stehfest_weights(m)
    grid = FdGrid.for_problem(problem, _as(int, fd_block["N_x"], "fd.N_x"),
                              _as(int, fd_block["M_t"], "fd.M_t"))
    t0 = time.perf_counter()
    ml = greens_function(problem, scheme=scheme, xs=grid.xs)
    t1 = time.perf_counter()
    fd = fd_solve(problem, grid)
    t2 = time.perf_counter()
    print(f"ml_ms={(t1 - t0) * 1e3:.3f} fd_ms={(t2 - t1) * 1e3:.3f}", file=sys.stderr)

    columns = {"x": grid.xs, "u_ml": ml.values, "u_fd": fd.values}
    med = problem.medium
    if np.all(med.sigmas == med.sigmas[0]):
        strip = StripProblem(med.boundaries[0], med.boundaries[-1],
                             float(med.sigmas[0]), problem.x0, problem.T)
        columns["u_analytic"] = strip_green(strip, grid.xs)
    scale = float(np.max(np.abs(ml.values)))
    columns["rel_diff_pct"] = 100.0 * (fd.values - ml.values) / scale
    _write_csv(args.out or cfg.get("output"), columns)
    return 0


def _term_structure(params):
    fields = {k: _as(float, params[k], k)
              for k in ("r", "q", "kappa", "theta", "sigma", "s") if k in params}
    return TermStructure(**fields)


def _xi_from_params(spec):
    _check_keys(spec, ("kind", "a", "value", "x", "values"), "xi")
    kind = spec.get("kind")
    if kind == "exp":
        _require_keys(spec, ("a",), "exp xi")
        a = _as(float, spec["a"], "xi.a")
        return lambda x: np.exp(-a * x / 2.0)
    if kind == "constant":
        _require_keys(spec, ("value",), "constant xi")
        return _as(float, spec["value"], "xi.value")
    if kind == "sampled":
        _require_keys(spec, ("x", "values"), "sampled xi")
        return Curve(_as(_floats, spec["x"], "xi.x"), _as(_floats, spec["values"], "xi.values"))
    raise ConfigError(f"unknown xi kind {kind!r} (expected exp, constant or sampled)")


def cmd_transform(args):
    params = _load_config(args.config)
    kind = args.kind
    samples = _as(int, params.pop("samples", 41), "samples")
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    out = args.out or params.pop("output", None)

    if kind == "dupire":
        _check_keys(params, ("r", "q", "v", "T", "state"), "dupire params")
        _require_keys(params, ("T", "v"), "dupire params")
        T = _as(float, params["T"], "T")
        chart = dupire_to_heat(_term_structure(params), _as(float, params["v"], "v"), T)
        state = _as(float, params.get("state", 1.0), "state")
        t = np.linspace(0.0, T, samples)
        columns = {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, state),
                   "multiplier": chart.multiplier(t, state)}
    elif kind == "bk":
        _check_keys(params, ("kappa", "theta", "sigma", "s", "a", "b", "S", "z", "R"),
                    "bk params")
        _require_keys(params, ("S",), "bk params")
        S = _as(float, params["S"], "S")
        z = _as(float, params.get("z", 0.0), "z")
        R = _as(float, params.get("R", 1.0), "R")
        chart = bk_layer_chart(_term_structure(params), _as(float, params.get("a", 0.0), "a"),
                               _as(float, params.get("b", 0.0), "b"), S)
        t = np.linspace(0.0, S, samples)
        # the bond value is the chart's multiplier at the state R e^z (bk_affine_zcb)
        columns = {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, z),
                   "multiplier": chart.multiplier(t, z),
                   "F": chart.multiplier(t, R * math.exp(z))}
    elif kind == "verhulst":
        _check_keys(params, ("kappa", "theta", "sigma", "s", "R", "i", "N", "L",
                             "horizon", "state"), "verhulst params")
        _require_keys(params, ("horizon", "i", "N"), "verhulst params")
        horizon = _as(float, params["horizon"], "horizon")
        chart = verhulst_chart(_term_structure(params), _as(float, params.get("R", 1.0), "R"),
                               _as(int, params["i"], "i"), _as(int, params["N"], "N"),
                               _as(float, params.get("L", 1.0), "L"), horizon)
        state = _as(float, params.get("state", 0.5), "state")
        t = np.linspace(0.0, horizon, samples)
        columns = {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, state),
                   "multiplier": chart.multiplier(t, state), "nu": chart.nu(t)}
    elif kind == "divergent":
        _check_keys(params, ("xi", "c1", "c2", "z_min", "z_max"), "divergent params")
        _require_keys(params, ("c1",), "divergent params")
        xi = _as_curve(_xi_from_params(params.get("xi", {})))
        c1 = _as(float, params["c1"], "c1")
        chart = nondivergent_to_divergent(xi, c1, _as(float, params.get("c2", 0.0), "c2"))
        z = np.linspace(_as(float, params.get("z_min", 0.0), "z_min"),
                        _as(float, params.get("z_max", 1.0), "z_max"), samples)
        x = chart.x_of_z(z)
        # sigma^2 = c1^2 / Xi(x)^2 at the inverted samples (sigma_sq_of_z inverts again)
        columns = {"z": z, "x_of_z": x, "sigma_sq": c1 * c1 / xi(x) ** 2}
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown transform kind {kind!r}")
    _write_csv(out, columns)
    return 0


def cmd_boundaries(args):
    params = _load_config(args.config)
    _check_keys(params, ("chi_minus", "chi_plus", "N", "degree", "T", "output"),
                "boundaries params")
    _require_keys(params, ("chi_minus", "chi_plus", "N", "degree", "T"), "boundaries params")

    def curve(name):
        spec = params[name]
        if isinstance(spec, (int, float)):
            return float(spec)
        coeffs = _as(_floats, spec, f"{name} coefficients")
        return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)

    cm = curve("chi_minus")
    cp = curve("chi_plus")
    T = _as(float, params["T"], "T")
    n = _as(int, params["N"], "N")
    degree = _as(int, params["degree"], "degree")
    if n < 2:
        raise ConfigError(f"N must be at least 2, got {n}")
    if degree not in (1, 2, 3):
        raise ConfigError(f"degree must be 1, 2 or 3, got {degree}")
    if not (math.isfinite(T) and T > 0.0):
        raise ConfigError(f"T must be positive and finite, got {T}")
    try:
        bset = build_internal_boundaries(cm, cp, n, degree, T)
    except ConfigError as exc:
        # params are well-formed at this point; a failed construction is a
        # numerical outcome (crossing boundaries), not a config problem
        raise NumericalError(str(exc)) from exc
    for i, coeffs in enumerate(bset.coeffs):
        print(f"boundary_{i + 1}_coeffs=" + ",".join(map(repr, coeffs.tolist())),
              file=sys.stderr)
    t = np.linspace(0.0, T, 200)
    columns = {"t": t, **{f"y_{i + 1}": bset.evaluate(i, t) for i in range(bset.n_interior)}}
    _write_csv(args.out or params.get("output"), columns)
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="mlheat",
        description="Semi-analytical multilayer heat solver: Green's functions, "
                    "FD comparison, model-to-heat charts and boundary construction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON configuration (holds every setting)")
    common.add_argument("--out", help="CSV output path (default: config 'output', else stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", parents=[common], help="layered Green's function on a grid -> CSV")
    g.set_defaults(func=cmd_green)
    c = sub.add_parser("compare", parents=[common], help="layered solve vs FD -> CSV")
    c.set_defaults(func=cmd_compare)
    t = sub.add_parser("transform", parents=[common], help="sample a model-to-heat chart -> CSV")
    t.add_argument("kind", choices=("dupire", "bk", "verhulst", "divergent"))
    t.set_defaults(func=cmd_transform)
    b = sub.add_parser("boundaries", parents=[common], help="interior moving boundaries -> CSV")
    b.set_defaults(func=cmd_boundaries)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
