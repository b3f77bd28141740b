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
import functools
import json
import sys
import time

import numpy as np

from .analytic import StripProblem, strip_green
from .errors import ConfigError, NumericalError, integral, number
from .fd import FdGrid, fd_solve
from .laplace import DEFAULT_ORDER, stehfest_weights
from .layered import GreensProblem, LayeredMedium, greens_function
from .transforms import (Curve, TermStructure, _as_curve, _bk_state, bk_layer_chart,
                         dupire_to_heat, nondivergent_to_divergent, verhulst_chart)
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


REQUIRED = object()  # the default of a key a block must give

# the largest integer setting a config may give (layers, grid points, FD nodes
# or steps, samples, strips, Stehfest order, degree, layer index); a larger
# count would only fail in numpy's allocation or run for hours
MAX_COUNT = 100_000


def _count(value):
    """An integral number up to MAX_COUNT."""
    n = integral(value)
    if n > MAX_COUNT:
        raise ConfigError(f"{value!r} exceeds the limit of {MAX_COUNT}")
    return n


def _floats(value):
    """A number or a list of numbers as a 1-D float array."""
    return np.array([number(v) for v in (value if isinstance(value, list) else [value])])


def _curve(value):
    """A number as a constant, else polynomial coefficients in t, lowest first."""
    if not isinstance(value, list):
        return number(value)
    coeffs = _floats(value)
    return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)


def _block(value):
    """A nested block, left for its own schema to read."""
    return value


def _read(block, where, **keys):
    """The values of a config block by its schema, as a dict.

    Each keyword maps an allowed key to ``(kind, default)``: ``kind``
    (``number``, ``_count``, ``_floats``, ``_curve`` or a nested
    reader) converts a given value, the default stands for an absent
    one, and ``REQUIRED`` makes the key mandatory.  A block that is not a
    JSON object, an unknown or missing key and a value its kind cannot
    convert are each a ConfigError.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    values = {}
    for key, (kind, default) in keys.items():
        if key not in block:
            if default is REQUIRED:
                raise ConfigError(f"missing {key!r} in {where}")
            values[key] = default
            continue
        try:
            values[key] = kind(block[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key!r} in {where}: {exc}") from exc
    return values


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _build_problem(cfg):
    """GreensProblem, Stehfest order and the top-level blocks of a green/compare config."""
    cfg = _read(cfg, "config", problem=(_block, REQUIRED), solver=(_block, {}),
                fd=(_block, {}), eval=(_block, {}))
    prob = _read(cfg["problem"], "problem", boundaries=(_floats, None), y0=(number, None),
                 yN=(number, None), sigmas=(_floats, None), sigma=(number, None),
                 x0=(number, REQUIRED), T=(number, REQUIRED))
    solver = _read(cfg["solver"], "solver", m=(_count, DEFAULT_ORDER), layers=(_count, None))

    layers, boundaries = solver["layers"], prob["boundaries"]
    if boundaries is not None:
        if layers is not None and layers != len(boundaries) - 1:
            raise ConfigError(
                f"layers={layers} contradicts the {len(boundaries) - 1}-layer 'boundaries' list"
            )
    else:
        for key, value, where in (("y0", prob["y0"], "problem without 'boundaries'"),
                                  ("yN", prob["yN"], "problem without 'boundaries'"),
                                  ("layers", layers, "solver for a uniform split")):
            if value is None:
                raise ConfigError(f"missing {key!r} in {where}")
        boundaries = np.linspace(prob["y0"], prob["yN"], max(layers, 0) + 1)

    if prob["sigmas"] is not None:
        sigmas = prob["sigmas"]
    elif prob["sigma"] is not None:
        sigmas = np.full(max(len(boundaries) - 1, 0), prob["sigma"])
    else:
        raise ConfigError("problem needs 'sigmas' (per layer) or a scalar 'sigma'")

    medium = LayeredMedium(boundaries=boundaries, sigmas=sigmas)
    return GreensProblem(medium=medium, x0=prob["x0"], T=prob["T"]), solver["m"], cfg


def cmd_green(cfg, args):
    problem, m, cfg = _build_problem(cfg)
    grid = _read(cfg["eval"], "eval", grid=(_count, 101), abscissas=(_floats, None))
    xs = grid["abscissas"]
    if xs is None:
        if grid["grid"] < 1:
            raise ConfigError(f"eval grid must have at least 1 point, got {grid['grid']}")
        b = problem.medium.boundaries
        xs = np.linspace(b[0], b[-1], grid["grid"])
    t0 = time.perf_counter()
    scheme = stehfest_weights(m)
    t1 = time.perf_counter()
    fld = greens_function(problem, scheme=scheme, xs=xs)
    t2 = time.perf_counter()
    print(f"precompute_ms={(t1 - t0) * 1e3:.3f} solve_ms={(t2 - t1) * 1e3:.3f}", file=sys.stderr)
    return {"x": xs, "u": fld.values}


def cmd_compare(cfg, args):
    problem, m, cfg = _build_problem(cfg)
    fd_block = _read(cfg["fd"], "fd", N_x=(_count, REQUIRED), M_t=(_count, REQUIRED))
    scheme = stehfest_weights(m)
    grid = FdGrid.for_problem(problem, fd_block["N_x"], fd_block["M_t"])
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
    return columns


_XI_KEYS = {"exp": {"a": (number, REQUIRED)}, "constant": {"value": (number, REQUIRED)},
            "sampled": {"x": (_floats, REQUIRED), "values": (_floats, REQUIRED)}}


def _xi(spec):
    """Xi(x) of a divergent chart from its xi block: exp (a), constant (value)
    or sampled (x, values)."""
    # a block that is not an object is left for _read to reject
    keys = _XI_KEYS.get(spec.get("kind")) if isinstance(spec, dict) else {}
    if keys is None:
        raise ConfigError(f"unknown xi kind {spec.get('kind')!r} "
                          "(expected exp, constant or sampled)")
    xi = _read(spec, "xi", kind=(str, REQUIRED), **keys)
    if xi["kind"] == "exp":
        a = xi["a"]
        return lambda x: np.exp(-a * x / 2.0)
    if xi["kind"] == "constant":
        return xi["value"]
    return Curve(xi["x"], xi["values"])


_RATES = {k: (number, None) for k in ("kappa", "theta", "sigma", "s")}
_TRANSFORM_KEYS = {
    "dupire": dict(r=(number, None), q=(number, None), v=(number, REQUIRED),
                   T=(number, REQUIRED), state=(number, 1.0)),
    "bk": dict(_RATES, a=(number, 0.0), b=(number, 0.0), S=(number, REQUIRED),
               z=(number, 0.0), R=(number, 1.0)),
    "verhulst": dict(_RATES, R=(number, 1.0), i=(_count, REQUIRED), N=(_count, REQUIRED),
                     L=(number, 1.0), horizon=(number, REQUIRED), state=(number, 0.5)),
    "divergent": dict(xi=(_xi, REQUIRED), c1=(number, REQUIRED), c2=(number, 0.0),
                      z_min=(number, 0.0), z_max=(number, 1.0)),
}


def cmd_transform(cfg, args):
    kind = args.kind
    p = _read(cfg, f"{kind} params", samples=(_count, 41), **_TRANSFORM_KEYS[kind])
    samples = p["samples"]
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    ts = TermStructure(**{k: p[k] for k in ("r", "q", "kappa", "theta", "sigma", "s")
                          if p.get(k) is not None})

    if kind == "dupire":
        chart = dupire_to_heat(ts, p["v"], p["T"])
        t, state = np.linspace(0.0, p["T"], samples), p["state"]
        return {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, state),
                "multiplier": chart.multiplier(t, state)}
    if kind == "bk":
        t, z = np.linspace(0.0, p["S"], samples), p["z"]
        # the bond value is the chart's multiplier at the state R e^z (bk_affine_zcb)
        state = _bk_state(p["R"], z)
        chart = bk_layer_chart(ts, p["a"], p["b"], p["S"])
        return {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, z),
                "multiplier": chart.multiplier(t, z), "F": chart.multiplier(t, state)}
    if kind == "verhulst":
        chart = verhulst_chart(ts, p["R"], p["i"], p["N"], p["L"], p["horizon"])
        t, state = np.linspace(0.0, p["horizon"], samples), p["state"]
        return {"t": t, "tau": chart.tau_of_t(t), "x": chart.x_of_state(t, state),
                "multiplier": chart.multiplier(t, state), "nu": chart.nu(t)}
    xi, c1 = _as_curve(p["xi"]), p["c1"]
    chart = nondivergent_to_divergent(xi, c1, p["c2"])
    z = np.linspace(p["z_min"], p["z_max"], samples)
    x = chart.x_of_z(z)
    # sigma^2 = c1^2 / Xi(x)^2 at the inverted samples (sigma_sq_of_z inverts again)
    return {"z": z, "x_of_z": x, "sigma_sq": c1 * c1 / xi(x) ** 2}


def cmd_boundaries(cfg, args):
    p = _read(cfg, "boundaries params", chi_minus=(_curve, REQUIRED), chi_plus=(_curve, REQUIRED),
              N=(_count, REQUIRED), degree=(_count, REQUIRED), T=(number, REQUIRED))
    bset = build_internal_boundaries(p["chi_minus"], p["chi_plus"], p["N"], p["degree"], p["T"])
    for i, coeffs in enumerate(bset.coeffs):
        print(f"boundary_{i + 1}_coeffs=" + ",".join(map(repr, coeffs.tolist())),
              file=sys.stderr)
    t = np.linspace(0.0, bset.horizon, 200)
    return {"t": t, **{f"y_{i + 1}": bset.evaluate(i, t) for i in range(bset.n_interior)}}


# built once per process: parse_args leaves the parser as it found it
@functools.cache
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
        cfg = _load_config(args.config)
        # every command's config may name its CSV; the commands' schemas leave it out
        output = cfg.pop("output", None) if isinstance(cfg, dict) else None
        if not isinstance(output, (str, type(None))):
            raise ConfigError(f"bad 'output' in config: {output!r} is not a path")
        _write_csv(args.out or output, args.func(cfg, args))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
