"""Command-line interface: JSON configs in, CSV tables out.

Subcommands: ``green`` (layered Green's function on a grid), ``compare``
(layered solve vs. finite differences, with the analytic reference when
the medium is uniform), ``transform`` (sample a model-to-heat chart), and
``boundaries`` (polynomial interior boundaries for a moving strip).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import sys
import time

import numpy as np

from .analytic import StripProblem, strip_green
from .errors import ConfigError, NumericalError
from .fd import FdGrid, fd_solve
from .laplace import DEFAULT_ORDER, stehfest_weights
from .layered import GreensProblem, LayeredMedium, greens_function
from .transforms import (TermStructure, bk_affine_zcb, bk_layer_chart,
                         dupire_to_heat, nondivergent_to_divergent,
                         verhulst_chart)
from .volterra import build_internal_boundaries


def _fmt(x):
    """Shortest round-trip decimal representation (<= 17 significant digits)."""
    return repr(float(x))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _check_keys(block, allowed, where):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _build_problem(cfg, args):
    """LayeredMedium + GreensProblem from the config's problem/solver blocks."""
    _check_keys(cfg, ("problem", "solver", "fd", "eval", "output"), "config")
    prob = cfg.get("problem")
    if not isinstance(prob, dict):
        raise ConfigError("config must contain a 'problem' object")
    _check_keys(prob, ("boundaries", "y0", "yN", "sigmas", "sigma", "x0", "T"), "problem")
    solver = cfg.get("solver", {})
    _check_keys(solver, ("m", "layers"), "solver")

    layers = args.layers if args.layers is not None else solver.get("layers")
    if "boundaries" in prob:
        boundaries = np.asarray(prob["boundaries"], dtype=float)
        if layers is not None and layers != len(boundaries) - 1:
            raise ConfigError(
                f"layers={layers} contradicts the {len(boundaries) - 1}-layer 'boundaries' list"
            )
    else:
        if "y0" not in prob or "yN" not in prob:
            raise ConfigError("problem needs either 'boundaries' or 'y0'/'yN' with layers")
        if layers is None:
            raise ConfigError("uniform split needs 'layers' (solver block or --layers)")
        boundaries = np.linspace(float(prob["y0"]), float(prob["yN"]), int(layers) + 1)

    n_layers = len(boundaries) - 1
    if "sigmas" in prob:
        sigmas = np.asarray(prob["sigmas"], dtype=float)
        if len(sigmas) != n_layers:
            raise ConfigError(
                f"sigmas has {len(sigmas)} entries but the medium has {n_layers} layers"
            )
    elif "sigma" in prob:
        sigmas = np.full(n_layers, float(prob["sigma"]))
    else:
        raise ConfigError("problem needs 'sigmas' (per layer) or a scalar 'sigma'")
    if "x0" not in prob or "T" not in prob:
        raise ConfigError("problem needs 'x0' and 'T'")

    medium = LayeredMedium(boundaries=boundaries, sigmas=sigmas)
    green = GreensProblem(medium=medium, x0=float(prob["x0"]), T=float(prob["T"]))
    m = args.stehfest if args.stehfest is not None else int(solver.get("m", DEFAULT_ORDER))
    return green, m


def _eval_grid(cfg, medium):
    block = cfg.get("eval", {})
    _check_keys(block, ("grid", "abscissas"), "eval")
    if "abscissas" in block:
        return np.asarray(block["abscissas"], dtype=float)
    n = int(block.get("grid", 101))
    if n < 1:
        raise ConfigError(f"eval grid must have at least 1 point, got {n}")
    if n == 1:
        return np.array([medium.boundaries[0]])
    return np.linspace(medium.boundaries[0], medium.boundaries[-1], n)


def cmd_green(args):
    cfg = _load_config(args.config)
    problem, m = _build_problem(cfg, args)
    xs = _eval_grid(cfg, problem.medium)
    t0 = time.perf_counter()
    scheme = stehfest_weights(m)
    t1 = time.perf_counter()
    fld = greens_function(problem, scheme=scheme, xs=xs)
    t2 = time.perf_counter()
    print(f"precompute_ms={(t1 - t0) * 1e3:.3f} solve_ms={(t2 - t1) * 1e3:.3f}", file=sys.stderr)
    out = args.out or cfg.get("output")
    _write_csv(out, ["x", "u"], zip(map(float, xs), map(float, fld.values)))
    return 0


def cmd_compare(args):
    cfg = _load_config(args.config)
    problem, m = _build_problem(cfg, args)
    fd_block = cfg.get("fd", {})
    _check_keys(fd_block, ("N_x", "M_t"), "fd")
    n_x = args.fd_nx if args.fd_nx is not None else fd_block.get("N_x")
    m_t = args.fd_nt if args.fd_nt is not None else fd_block.get("M_t")
    if n_x is None or m_t is None:
        raise ConfigError("compare needs fd.N_x and fd.M_t (or --fd-nx/--fd-nt)")
    scheme = stehfest_weights(m)
    grid = FdGrid.for_problem(problem, int(n_x), int(m_t))
    t0 = time.perf_counter()
    ml = greens_function(problem, scheme=scheme, xs=grid.xs)
    t1 = time.perf_counter()
    fd = fd_solve(problem, grid)
    t2 = time.perf_counter()
    print(f"ml_ms={(t1 - t0) * 1e3:.3f} fd_ms={(t2 - t1) * 1e3:.3f}", file=sys.stderr)

    scale = float(np.max(np.abs(ml.values)))
    rel = 100.0 * (fd.values - ml.values) / scale
    med = problem.medium
    uniform = np.all(med.sigmas == med.sigmas[0])
    header = ["x", "u_ml", "u_fd"] + (["u_analytic"] if uniform else []) + ["rel_diff_pct"]
    rows = []
    if uniform:
        strip = StripProblem(med.boundaries[0], med.boundaries[-1],
                             float(med.sigmas[0]), problem.x0, problem.T)
        ua = strip_green(strip, grid.xs)
        for x, a, b, c, d in zip(grid.xs, ml.values, fd.values, ua, rel):
            rows.append((float(x), float(a), float(b), float(c), float(d)))
    else:
        for x, a, b, d in zip(grid.xs, ml.values, fd.values, rel):
            rows.append((float(x), float(a), float(b), float(d)))
    _write_csv(args.out or cfg.get("output"), header, rows)
    return 0


def _term_structure(params):
    fields = {k: params[k] for k in ("r", "q", "kappa", "theta", "sigma", "s") if k in params}
    return TermStructure(**fields)


def _xi_from_params(spec):
    _check_keys(spec, ("kind", "a", "value", "x", "values"), "xi")
    kind = spec.get("kind")
    if kind == "exp":
        a = float(spec["a"])
        return lambda x: np.exp(-a * x / 2.0), a
    if kind == "constant":
        c = float(spec["value"])
        return lambda x: c + 0.0 * np.asarray(x, dtype=float), None
    if kind == "sampled":
        xs = np.asarray(spec["x"], dtype=float)
        vals = np.asarray(spec["values"], dtype=float)
        return lambda x: np.interp(x, xs, vals), None
    raise ConfigError(f"unknown xi kind {kind!r} (expected exp, constant or sampled)")


def cmd_transform(args):
    params = _load_config(args.config)
    kind = args.kind
    samples = int(params.pop("samples", 41))
    out = args.out or params.pop("output", None)

    if kind == "dupire":
        _check_keys(params, ("r", "q", "v", "T", "state"), "dupire params")
        T = float(params["T"])
        chart = dupire_to_heat(_term_structure(params), params["v"], T)
        state = float(params.get("state", 1.0))
        rows = []
        for t in np.linspace(0.0, T, samples):
            rows.append((float(t), chart.tau_of_t(t),
                         chart.x_of_state(t, state), chart.multiplier(t, state)))
        _write_csv(out, ["t", "tau", "x", "multiplier"], rows)
    elif kind == "bk":
        _check_keys(params, ("kappa", "theta", "sigma", "s", "a", "b", "S", "z", "R"),
                    "bk params")
        S = float(params["S"])
        z = float(params.get("z", 0.0))
        R = float(params.get("R", 1.0))
        ts = _term_structure(params)
        a_i = params.get("a", 0.0)
        b_i = params.get("b", 0.0)
        chart = bk_layer_chart(ts, a_i, b_i, S)
        rows = []
        for t in np.linspace(0.0, S, samples):
            rows.append((float(t), chart.tau_of_t(t), chart.x_of_state(t, z),
                         chart.multiplier(t, z), bk_affine_zcb(ts, a_i, b_i, t, S, z, R)))
        _write_csv(out, ["t", "tau", "x", "multiplier", "F"], rows)
    elif kind == "verhulst":
        _check_keys(params, ("kappa", "theta", "sigma", "s", "R", "i", "N", "L",
                             "horizon", "state"), "verhulst params")
        horizon = float(params["horizon"])
        chart = verhulst_chart(_term_structure(params), float(params.get("R", 1.0)),
                               int(params["i"]), int(params["N"]),
                               params.get("L", 1.0), horizon)
        state = float(params.get("state", 0.5))
        rows = []
        for t in np.linspace(0.0, horizon, samples):
            rows.append((float(t), chart.tau_of_t(t), chart.x_of_state(t, state),
                         chart.multiplier(t, state), chart.nu(t)))
        _write_csv(out, ["t", "tau", "x", "multiplier", "nu"], rows)
    elif kind == "divergent":
        _check_keys(params, ("xi", "c1", "c2", "z_min", "z_max"), "divergent params")
        xi, _ = _xi_from_params(params.get("xi", {}))
        chart = nondivergent_to_divergent(xi, float(params["c1"]),
                                          float(params.get("c2", 0.0)))
        z_lo = float(params.get("z_min", 0.0))
        z_hi = float(params.get("z_max", 1.0))
        rows = []
        for z in np.linspace(z_lo, z_hi, samples):
            rows.append((float(z), chart.x_of_z(z), chart.sigma_sq_of_z(z)))
        _write_csv(out, ["z", "x_of_z", "sigma_sq"], rows)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown transform kind {kind!r}")
    return 0


def cmd_boundaries(args):
    params = _load_config(args.config)
    _check_keys(params, ("chi_minus", "chi_plus", "N", "degree", "T", "output"),
                "boundaries params")
    for key in ("chi_minus", "chi_plus", "N", "degree", "T"):
        if key not in params:
            raise ConfigError(f"boundaries params need {key!r}")

    def curve(spec):
        if isinstance(spec, (int, float)):
            return float(spec)
        coeffs = np.asarray(spec, dtype=float)
        return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)

    cm = curve(params["chi_minus"])
    cp = curve(params["chi_plus"])
    T = float(params["T"])
    n = int(params["N"])
    degree = int(params["degree"])
    if n < 2:
        raise ConfigError(f"N must be at least 2, got {n}")
    if degree not in (1, 2, 3):
        raise ConfigError(f"degree must be 1, 2 or 3, got {degree}")
    if T <= 0.0:
        raise ConfigError(f"T must be positive, got {T}")
    try:
        bset = build_internal_boundaries(cm, cp, n, degree, T)
    except ConfigError as exc:
        # params are well-formed at this point; a failed construction is a
        # numerical outcome (crossing boundaries), not a config problem
        raise NumericalError(str(exc)) from exc
    for i, coeffs in enumerate(bset.coeffs):
        print(f"boundary_{i + 1}_coeffs=" + ",".join(_fmt(c) for c in coeffs), file=sys.stderr)
    grid = np.linspace(0.0, T, 200)
    header = ["t"] + [f"y_{i + 1}" for i in range(bset.n_interior)]
    rows = []
    for t in grid:
        rows.append(tuple([float(t)] + [float(bset.evaluate(i, t))
                                        for i in range(bset.n_interior)]))
    _write_csv(args.out or params.get("output"), header, rows)
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="mlheat",
        description="Semi-analytical multilayer heat solver: Green's functions, "
                    "FD comparison, model-to-heat charts and boundary construction.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", help="layered Green's function on a grid -> CSV")
    g.add_argument("--config", required=True, help="JSON run configuration")
    g.add_argument("--out", help="CSV output path (default: stdout or config 'output')")
    g.add_argument("--layers", type=int, help="override layer count for uniform splits")
    g.add_argument("--stehfest", type=int, help="inversion order m (even)")
    g.set_defaults(func=cmd_green, fd_nx=None, fd_nt=None)

    c = sub.add_parser("compare", help="layered solve vs finite differences -> CSV")
    c.add_argument("--config", required=True, help="JSON run configuration")
    c.add_argument("--out", help="CSV output path")
    c.add_argument("--layers", type=int, help="override layer count for uniform splits")
    c.add_argument("--stehfest", type=int, help="inversion order m (even)")
    c.add_argument("--fd-nx", dest="fd_nx", type=int, help="FD spatial nodes")
    c.add_argument("--fd-nt", dest="fd_nt", type=int, help="FD time steps")
    c.set_defaults(func=cmd_compare)

    t = sub.add_parser("transform", help="sample a model-to-heat chart -> CSV")
    t.add_argument("kind", choices=("dupire", "bk", "verhulst", "divergent"))
    t.add_argument("--config", required=True, help="JSON parameter file")
    t.add_argument("--out", help="CSV output path")
    t.set_defaults(func=cmd_transform, layers=None, stehfest=None, fd_nx=None, fd_nt=None)

    b = sub.add_parser("boundaries", help="polynomial interior boundaries -> CSV")
    b.add_argument("--config", required=True, help="JSON parameter file")
    b.add_argument("--out", help="CSV output path")
    b.set_defaults(func=cmd_boundaries, layers=None, stehfest=None, fd_nx=None, fd_nt=None)
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
