"""Tests for the command-line interface: configs, CSV outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from mlheat import cli
from mlheat.cli import main
from mlheat.transforms import (TermStructure, bk_affine_zcb, nondivergent_to_divergent,
                               verhulst_chart)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


GREEN_CFG = {
    "problem": {"y0": -1.0, "yN": 4.0, "sigma": 0.5, "x0": 0.05, "T": 1.0},
    "solver": {"m": 16, "layers": 20},
    "eval": {"grid": 101},
}


class TestGreen:
    def test_table_run_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "green.json", GREEN_CFG)
        out = tmp_path / "green.csv"
        rc = main(["green", "--config", cfg, "--out", str(out)])
        assert rc == 0
        timing = capsys.readouterr().err
        assert "precompute_ms=" in timing and "solve_ms=" in timing

        header, rows = read_csv(out)
        assert header == ["x", "u"]
        assert rows.shape == (101, 2)
        assert rows[0, 0] == -1.0 and rows[-1, 0] == 4.0
        # the solution peaks near the source
        assert abs(rows[np.argmax(rows[:, 1]), 0] - 0.05) <= 0.1

    def test_stdout_holds_only_csv(self, tmp_path, capsys):
        # without --out the CSV goes to stdout, so `> out.csv` must get a
        # clean table; timings go to stderr
        cfg = write_config(tmp_path, "green.json", GREEN_CFG)
        assert main(["green", "--config", cfg]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 102
        assert "precompute_ms=" in captured.err

    def test_single_point_grid_at_left_end(self, tmp_path):
        payload = dict(GREEN_CFG, eval={"grid": 1})
        cfg = write_config(tmp_path, "one.json", payload)
        out = tmp_path / "one.csv"
        assert main(["green", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows.shape == (1, 2)
        assert rows[0, 0] == -1.0
        assert rows[0, 1] == 0.0

    def test_integral_float_settings_run_as_integers(self, tmp_path):
        # "layers": 4.0 runs 4 layers: the same bytes as "layers": 4
        outs = []
        for layers, m, grid in ((4, 16, 11), (4.0, 16.0, 11.0)):
            payload = dict(GREEN_CFG, solver={"m": m, "layers": layers}, eval={"grid": grid})
            outs.append(tmp_path / f"green_{layers!r}.csv")
            cfg = write_config(tmp_path, "green.json", payload)
            assert main(["green", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_csv(outs[0])[1].shape == (11, 2)

    def test_sigma_length_mismatch_is_config_error(self, tmp_path, capsys):
        payload = {
            "problem": {"boundaries": [0.0, 0.5, 1.0], "sigmas": [0.5, 0.6, 0.7],
                        "x0": 0.3, "T": 1.0},
        }
        cfg = write_config(tmp_path, "bad.json", payload)
        rc = main(["green", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigmas" in err

    def test_byte_stable_output(self, tmp_path):
        cfg = write_config(tmp_path, "green.json", GREEN_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["green", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["green", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()


class TestCsvWriter:
    def test_bytes_match_per_value_repr(self, capsys):
        # each value as repr(float(x)), the writer's format before it
        # converted whole columns
        columns = {
            "list": [0.1, 1, -0.0, 1e-300, float("nan"), 2.5e17],
            "float64": np.array([1 / 3, np.pi, -np.inf, 5e-324, 123456789.125, 0.0]),
            "float32": np.linspace(0.0, 1.0, 6, dtype=np.float32),
            "scalars": [np.float64(0.7), np.float32(0.1), np.int64(3), 2.0, True, -7],
        }
        rows = ["list,float64,float32,scalars"]
        rows += [",".join(repr(float(x)) for x in row) for row in zip(*columns.values())]
        cli._write_csv(None, columns)
        assert capsys.readouterr().out == "\n".join(rows) + "\n"


class TestRejectedValues:
    """Every value the library rejects ends as exit 2, never as a traceback."""

    @pytest.mark.parametrize("command, problem, extra", [
        ("green", {}, {"solver": {"m": 15, "layers": 4}}),
        ("green", {"x0": 2.0}, {}),
        ("green", {"x0": 0.5}, {}),
        ("green", {"T": 0.0}, {}),
        ("green", {"boundaries": [0.0, 0.6, 0.4, 1.0]}, {"solver": {}}),
        ("green", {"sigma": -1.0}, {}),
        ("green", {}, {"eval": {"abscissas": [0.5, 1.5]}}),
        ("compare", {}, {"fd": {"N_x": 3, "M_t": 40}}),
        ("green", {}, {"solver": {"layers": 0}}),
        ("green", {"x0": "abc"}, {}),
        ("green", {}, {"solver": {"layers": "four"}}),
        ("green", {"boundaries": 5}, {"solver": {}}),
        ("green", {"sigma": [1.0, 2.0]}, {}),
        ("compare", {}, {"fd": {"N_x": "many", "M_t": 40}}),
        ("green", {"boundaries": [0.0, 0.5, 1.0]}, {}),
        ("green", {"sigma": None}, {}),
        ("green", {}, {"eval": {"grid": 0}}),
        ("green", {}, {"problem": [0.0, 1.0]}),
        ("green", {}, {"solver": 5}),
        ("green", {}, {"eval": 3}),
        ("compare", {}, {"fd": 7}),
        ("green", {}, {"solver": {"layers": 4.7}}),
        ("green", {}, {"solver": {"m": 16.5, "layers": 4}}),
        ("green", {}, {"eval": {"grid": 5.9}}),
        ("compare", {}, {"fd": {"N_x": 40.5, "M_t": 40}}),
        ("green", {}, {"output": 5}),
        ("green", {"sigma": True}, {}),
        ("green", {"x0": "0.3"}, {}),
        ("green", {"boundaries": [0.0, "0.5", 1.0]}, {"solver": {}}),
        ("green", {}, {"solver": {"layers": 1e300}}),
        ("green", {}, {"eval": {"grid": 1e300}}),
        ("compare", {}, {"fd": {"N_x": 1e300, "M_t": 40}}),
        ("compare", {}, {"fd": {"N_x": 41, "M_t": 1e300}}),
        ("green", {}, {"solver": {"m": 1e300, "layers": 4}}),
    ], ids=["odd-m", "x0-outside", "x0-on-boundary", "T-nonpositive", "decreasing-boundaries",
            "negative-sigma", "abscissa-outside", "fd-nx-3", "zero-layers", "x0-not-a-number",
            "layers-not-a-number", "scalar-boundaries", "list-sigma", "fd-nx-not-a-number",
            "layers-contradict-boundaries", "no-sigma", "zero-grid", "problem-not-an-object",
            "solver-not-an-object", "eval-not-an-object", "fd-not-an-object", "layers-4.7",
            "m-16.5", "grid-5.9", "fd-nx-40.5", "output-not-a-path", "sigma-true",
            "x0-numeric-string", "boundary-numeric-string", "layers-1e300", "grid-1e300",
            "fd-nx-1e300", "fd-mt-1e300", "m-1e300"])
    def test_rejected_value_exits_2(self, tmp_path, capsys, command, problem, extra):
        # a key given as None is left out
        problem = dict({"y0": 0.0, "yN": 1.0, "sigma": 1.0, "x0": 0.3, "T": 0.1}, **problem)
        payload = {"problem": {k: v for k, v in problem.items() if v is not None},
                   "solver": {"layers": 4}, **extra}
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("problem, solver, message", [
        ({"sigma": True}, {"layers": 4}, "bad 'sigma' in problem: expected a number, got True"),
        ({"x0": "0.3"}, {"layers": 4}, "bad 'x0' in problem: expected a number, got '0.3'"),
        ({}, {"layers": 1e300}, "bad 'layers' in solver: 1e+300 exceeds the limit of 100000"),
        ({}, {"m": 1e300, "layers": 4}, "bad 'm' in solver: 1e+300 exceeds the limit of 100000"),
    ], ids=["sigma-true", "x0-numeric-string", "layers-1e300", "m-1e300"])
    def test_only_json_numbers_within_the_cap_are_read(self, tmp_path, capsys, problem, solver,
                                                       message):
        payload = {"problem": dict({"y0": 0.0, "yN": 1.0, "sigma": 1.0, "x0": 0.3, "T": 0.1},
                                   **problem), "solver": solver}
        assert main(["green", "--config", write_config(tmp_path, "bad.json", payload)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestCompare:
    def test_uniform_medium_includes_analytic_column(self, tmp_path, capsys):
        payload = {
            "problem": {"y0": -1.0, "yN": 4.0, "sigma": 0.5, "x0": 0.05, "T": 1.0},
            "solver": {"m": 16, "layers": 20},
            "fd": {"N_x": 41, "M_t": 40},
        }
        cfg = write_config(tmp_path, "cmp.json", payload)
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "ml_ms=" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == ["x", "u_ml", "u_fd", "u_analytic", "rel_diff_pct"]
        assert rows.shape == (41, 5)
        # the semi-analytical column matches the closed form much more
        # tightly than the coarse FD column
        scale = np.max(np.abs(rows[:, 3]))
        assert np.max(np.abs(rows[:, 1] - rows[:, 3])) <= 1e-4 * scale
        assert np.max(np.abs(rows[:, 2] - rows[:, 3])) > 1e-3 * scale

    def test_missing_fd_block_is_config_error(self, tmp_path):
        payload = {
            "problem": {"y0": 0.0, "yN": 1.0, "sigma": 1.0, "x0": 0.3, "T": 0.1},
            "solver": {"layers": 2},
        }
        cfg = write_config(tmp_path, "cmp.json", payload)
        assert main(["compare", "--config", cfg]) == 2


class TestTransform:
    def test_dupire_chart_samples(self, tmp_path):
        payload = {"r": 0.02, "q": 0.01, "v": 0.04, "T": 1.0, "state": 100.0,
                   "samples": 11}
        cfg = write_config(tmp_path, "dup.json", payload)
        out = tmp_path / "dup.csv"
        assert main(["transform", "dupire", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "tau", "x", "multiplier"]
        assert rows.shape == (11, 4)
        assert rows[0, 1] == 0.0
        assert rows[-1, 1] == pytest.approx(
            0.5 * 0.04 * (1.0 - math.exp(-0.02)) / 0.02, rel=1e-9)
        assert np.all(np.diff(rows[:, 1]) > 0.0)

    def test_bk_degenerate_bond_column(self, tmp_path):
        payload = {"kappa": 0.0, "theta": 0.0, "sigma": 0.0, "s": 0.0,
                   "a": 0.0, "b": 1.0, "S": 2.0, "z": 0.0, "R": 1.0, "samples": 5}
        cfg = write_config(tmp_path, "bk.json", payload)
        out = tmp_path / "bk.csv"
        assert main(["transform", "bk", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "tau", "x", "multiplier", "F"]
        for t, F in zip(rows[:, 0], rows[:, 4]):
            assert F == pytest.approx(math.exp(-(2.0 - t)), rel=1e-9)

    def test_divergent_exponential_map(self, tmp_path):
        payload = {"xi": {"kind": "exp", "a": 0.8}, "c1": 1.3, "c2": 0.0,
                   "z_min": 0.0, "z_max": 2.0, "samples": 9}
        cfg = write_config(tmp_path, "div.json", payload)
        out = tmp_path / "div.csv"
        assert main(["transform", "divergent", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["z", "x_of_z", "sigma_sq"]
        for z, x in zip(rows[:, 0], rows[:, 1]):
            assert x == pytest.approx(math.log1p(0.8 * z / 1.3) / 0.8, abs=1e-10)

    def test_unsorted_sampled_xi_is_config_error(self, tmp_path, capsys):
        payload = {"xi": {"kind": "sampled", "x": [1.0, 0.0, 2.0], "values": [1.0, 1.2, 0.9]},
                   "c1": 1.0, "samples": 3}
        cfg = write_config(tmp_path, "div.json", payload)
        assert main(["transform", "divergent", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "strictly increasing" in captured.err

    def test_bk_bond_column_is_affine_zcb(self, tmp_path):
        ts = {"kappa": 0.3, "theta": 0.05, "sigma": 0.2, "s": 0.01}
        payload = dict(ts, a=0.02, b=0.5, S=1.5, z=0.2, R=0.8, samples=11)
        cfg = write_config(tmp_path, "bk.json", payload)
        out = tmp_path / "bk.csv"
        assert main(["transform", "bk", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        expected = bk_affine_zcb(TermStructure(**ts), 0.02, 0.5, rows[:, 0], 1.5, 0.2, 0.8)
        assert np.array_equal(rows[:, 4], expected)

    def test_divergent_columns_are_the_chart(self, tmp_path):
        payload = {"xi": {"kind": "exp", "a": 0.8}, "c1": 1.3, "c2": 0.1,
                   "z_min": -1.0, "z_max": 2.0, "samples": 7}
        cfg = write_config(tmp_path, "div.json", payload)
        out = tmp_path / "div.csv"
        assert main(["transform", "divergent", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        chart = nondivergent_to_divergent(lambda x: np.exp(-0.8 * x / 2.0), 1.3, 0.1)
        assert list(rows[:, 1]) == [chart.x_of_z(z) for z in rows[:, 0]]
        assert list(rows[:, 2]) == [chart.sigma_sq_of_z(z) for z in rows[:, 0]]

    def test_divergent_constant_xi_is_linear(self, tmp_path):
        # a constant Xi = v maps x = (z - c2) v^2 / c1, sigma^2 = c1^2 / v^2
        v, c1, c2 = 0.8, 1.3, 0.1
        payload = {"xi": {"kind": "constant", "value": v}, "c1": c1, "c2": c2,
                   "z_min": -1.0, "z_max": 2.0, "samples": 7}
        cfg = write_config(tmp_path, "div.json", payload)
        out = tmp_path / "div.csv"
        assert main(["transform", "divergent", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["z", "x_of_z", "sigma_sq"]
        assert np.array_equal(rows[:, 0], np.linspace(-1.0, 2.0, 7))
        assert np.allclose(rows[:, 1], (rows[:, 0] - c2) * v * v / c1, rtol=1e-13, atol=1e-15)
        assert np.all(rows[:, 2] == c1 * c1 / v**2)

    def test_verhulst_columns_are_the_chart(self, tmp_path):
        ts = {"kappa": 0.3, "theta": 0.05, "sigma": 0.2, "s": 0.01}
        payload = dict(ts, R=1.2, i=1, N=4, L=1.5, horizon=1.0, state=0.7, samples=5)
        cfg = write_config(tmp_path, "verhulst.json", payload)
        out = tmp_path / "verhulst.csv"
        assert main(["transform", "verhulst", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "tau", "x", "multiplier", "nu"]
        t = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(rows[:, 0], t)
        chart = verhulst_chart(TermStructure(**ts), 1.2, 1, 4, 1.5, 1.0)
        assert np.array_equal(rows[:, 1], chart.tau_of_t(t))
        assert np.array_equal(rows[:, 2], chart.x_of_state(t, 0.7))
        assert np.array_equal(rows[:, 3], chart.multiplier(t, 0.7))
        assert np.array_equal(rows[:, 4], chart.nu(t))

    @pytest.mark.parametrize("kind, payload, missing", [
        ("dupire", {"r": 0.02, "q": 0.01, "v": 0.04, "T": 1.0}, "T"),
        ("dupire", {"r": 0.02, "q": 0.01, "v": 0.04, "T": 1.0}, "v"),
        ("bk", {"kappa": 0.1, "S": 2.0}, "S"),
        ("verhulst", {"horizon": 1.0, "i": 0, "N": 4}, "horizon"),
        ("verhulst", {"horizon": 1.0, "i": 0, "N": 4}, "i"),
        ("verhulst", {"horizon": 1.0, "i": 0, "N": 4}, "N"),
        ("divergent", {"xi": {"kind": "constant", "value": 1.0}, "c1": 1.0}, "c1"),
    ])
    def test_missing_required_key_is_config_error(self, tmp_path, capsys, kind, payload,
                                                   missing):
        payload = {k: v for k, v in payload.items() if k != missing}
        cfg = write_config(tmp_path, "p.json", payload)
        assert main(["transform", kind, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error" in captured.err
        assert repr(missing) in captured.err

    @pytest.mark.parametrize("xi, missing", [
        ({"kind": "exp", "a": 0.8}, "a"),
        ({"kind": "constant", "value": 1.0}, "value"),
        ({"kind": "sampled", "x": [0.0, 1.0], "values": [1.0, 2.0]}, "values"),
    ])
    def test_missing_xi_key_is_config_error(self, tmp_path, capsys, xi, missing):
        xi = {k: v for k, v in xi.items() if k != missing}
        cfg = write_config(tmp_path, "div.json", {"xi": xi, "c1": 1.0, "samples": 3})
        assert main(["transform", "divergent", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, payload", [
        ("dupire", {"r": 0.02, "v": "abc", "T": 1.0}),
        ("dupire", {"r": [0.02], "v": 0.04, "T": 1.0, "samples": "3"}),
        ("bk", {"kappa": 0.1, "S": 2.0, "a": "x"}),
        ("verhulst", {"horizon": 1.0, "i": "zero", "N": 4}),
        ("divergent", {"xi": {"kind": "sampled", "x": [0.0, "b"], "values": [1.0, 2.0]},
                       "c1": 1.0}),
        ("dupire", {"r": 0.02, "v": 0.04, "T": 1.0, "samples": -3}),
        ("dupire", {"r": 0.02, "v": 0.04, "T": 1.0, "samples": 0}),
        ("divergent", {"xi": {"kind": "linear", "a": 0.8}, "c1": 1.0}),
        ("divergent", {"xi": 1.0, "c1": 1.0}),
        ("bk", [1.0]),
        ("dupire", {"r": 0.02, "v": 0.04, "T": 1.0, "samples": 2.5}),
        ("verhulst", {"horizon": 1.0, "i": 0.5, "N": 4}),
        ("dupire", {"r": 0.02, "v": True, "T": 1.0}),
        ("bk", {"kappa": 0.1, "S": "2.0"}),
        ("dupire", {"r": 0.02, "v": 0.04, "T": 1.0, "samples": 1e300}),
        ("verhulst", {"horizon": 1.0, "i": 1e300, "N": 4}),
        ("verhulst", {"horizon": 1.0, "i": 0, "N": 1e300}),
        ("bk", {"S": 1.0, "z": 800.0}),
    ], ids=["dupire-v", "dupire-r", "bk-a", "verhulst-i", "divergent-xi",
            "samples-negative", "samples-zero", "divergent-xi-kind", "xi-not-an-object",
            "params-a-list", "samples-2.5", "verhulst-i-0.5", "dupire-v-true",
            "bk-S-numeric-string", "samples-1e300", "verhulst-i-1e300", "verhulst-N-1e300",
            "bk-z-800"])
    def test_non_numeric_param_is_config_error(self, tmp_path, capsys, kind, payload):
        cfg = write_config(tmp_path, "p.json", payload)
        assert main(["transform", kind, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")

    def test_unknown_param_key_is_config_error(self, tmp_path):
        payload = {"r": 0.02, "q": 0.01, "v": 0.04, "T": 1.0, "K": 100.0}
        cfg = write_config(tmp_path, "dup.json", payload)
        assert main(["transform", "dupire", "--config", cfg]) == 2


class TestBoundaries:
    def test_constant_strip_linear_boundaries(self, tmp_path, capsys):
        payload = {"chi_minus": -1.0, "chi_plus": 1.0, "N": 4, "degree": 1, "T": 2.0}
        cfg = write_config(tmp_path, "bnd.json", payload)
        out = tmp_path / "bnd.csv"
        rc = main(["boundaries", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = [l for l in capsys.readouterr().err.splitlines()
                 if l.startswith("boundary_")]
        assert len(lines) == 3
        header, rows = read_csv(out)
        assert header == ["t", "y_1", "y_2", "y_3"]
        assert rows.shape == (200, 4)
        # equispaced constant interior boundaries
        assert np.allclose(rows[:, 1], -0.5, atol=1e-12)
        assert np.allclose(rows[:, 2], 0.0, atol=1e-12)
        assert np.allclose(rows[:, 3], 0.5, atol=1e-12)

    def test_stdout_holds_only_csv(self, tmp_path, capsys):
        # without --out the CSV goes to stdout; the coefficients go to stderr
        payload = {"chi_minus": -1.0, "chi_plus": 1.0, "N": 3, "degree": 1, "T": 1.0}
        cfg = write_config(tmp_path, "bnd.json", payload)
        assert main(["boundaries", "--config", cfg]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,y_1,y_2"
        assert len(lines) == 201
        assert "boundary_1_coeffs=" in captured.err

    def test_crossing_externals_is_config_error(self, tmp_path, capsys):
        # chi_minus overtakes chi_plus inside [0, T]: the library rejects the
        # input, and every rejected input exits 2
        payload = {"chi_minus": [0.0, 1.0], "chi_plus": 1.0, "N": 3,
                   "degree": 1, "T": 2.0}
        cfg = write_config(tmp_path, "bad.json", payload)
        rc = main(["boundaries", "--config", cfg])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, code, message", [
        ({"N": 1}, 2, "config error: need at least 2 layers, got N=1"),
        ({"degree": 5}, 2, "config error: degree must be 1, 2 or 3, got 5"),
        ({"chi_minus": [0.0, 2.0]}, 2, "config error: external boundaries cross"),
        ({"degree": 3, "T": 1e-110}, 3, "numerical failure: singular degree-3 interpolation"),
    ], ids=["N-1", "degree-5", "crossing-externals", "underflowing-horizon"])
    def test_library_decides_the_exit_code(self, tmp_path, capsys, bad, code, message):
        # build_internal_boundaries alone checks N, degree, T and crossing;
        # main maps its ConfigError to 2 and its NumericalError to 3
        payload = dict({"chi_minus": -1.0, "chi_plus": [1.0, 1.0], "N": 3, "degree": 1,
                        "T": 2.0}, **bad)
        cfg = write_config(tmp_path, "bnd.json", payload)
        assert main(["boundaries", "--config", cfg]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_short_horizon(self, tmp_path, capsys, degree):
        # a horizon far below 1 still finds its interior samples: exit 0
        payload = {"chi_minus": -1.0, "chi_plus": [1.0, 1.0], "N": 3, "degree": degree,
                   "T": 1e-9}
        cfg = write_config(tmp_path, "bnd.json", payload)
        out = tmp_path / "bnd.csv"
        assert main(["boundaries", "--config", cfg, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == ["t", "y_1", "y_2"] and rows.shape == (200, 3)
        for i in (1, 2):
            split = -1.0 + i / 3.0 * (2.0 + rows[:, 0])
            assert np.allclose(rows[:, i], split, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("degree, T", [(3, 1e-110), (2, 1e-200), (3, 1e-200)])
    def test_underflowing_horizon_is_numerical_failure(self, tmp_path, capsys, degree, T):
        payload = {"chi_minus": -1.0, "chi_plus": [1.0, 1.0], "N": 3, "degree": degree, "T": T}
        cfg = write_config(tmp_path, "bnd.json", payload)
        assert main(["boundaries", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numerical failure: ")
        assert "Traceback" not in captured.err

    def test_invalid_degree_is_config_error(self, tmp_path):
        payload = {"chi_minus": -1.0, "chi_plus": 1.0, "N": 4, "degree": 5, "T": 2.0}
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["boundaries", "--config", cfg]) == 2

    @pytest.mark.parametrize("bad", [{"N": "four"}, {"T": [1.0, 2.0]},
                                     {"chi_plus": ["a", 1.0]}, {"T": math.nan}, {"N": 1},
                                     {"N": 3.9}, {"degree": 2.5}, [1.0], {"chi_minus": True},
                                     {"chi_plus": [1.0, True]}, {"T": "2.0"}, {"N": 1e300},
                                     {"degree": 1e300}],
                             ids=["N", "T", "chi_plus", "T-nan", "N-1", "N-3.9", "degree-2.5",
                                  "params-a-list", "chi_minus-true", "chi_plus-true-coefficient",
                                  "T-numeric-string", "N-1e300", "degree-1e300"])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, bad):
        # a list stands for the whole params file
        payload = bad if isinstance(bad, list) else dict(
            {"chi_minus": -1.0, "chi_plus": 1.0, "N": 4, "degree": 1, "T": 2.0}, **bad)
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["boundaries", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for word in ("green", "compare", "transform", "boundaries"):
            assert word in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["green", "--config", "x.json", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["green", "--layers", "4"], ["compare", "--fd-nx", "5"],
                                      ["green", "--stehfest", "16"], ["compare", "--fd-nt", "40"]])
    def test_settings_come_only_from_the_config(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", "x.json"] + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["green", "compare", "boundaries"])
    def test_help_lists_only_config_and_out(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = {w.strip(",[]") for w in capsys.readouterr().out.split() if w.startswith(("-", "[-"))}
        assert flags == {"-h", "--help", "--config", "--out"}

    def test_parser_built_once_serves_every_subcommand(self, tmp_path):
        assert cli._parser() is cli._parser()
        green, bnd = tmp_path / "green.csv", tmp_path / "bnd.csv"
        assert main(["green", "--config", write_config(tmp_path, "green.json", GREEN_CFG),
                     "--out", str(green)]) == 0
        payload = {"chi_minus": -1.0, "chi_plus": 1.0, "N": 3, "degree": 1, "T": 1.0}
        assert main(["boundaries", "--config", write_config(tmp_path, "bnd.json", payload),
                     "--out", str(bnd)]) == 0
        assert read_csv(green)[0] == ["x", "u"]
        assert read_csv(bnd)[0] == ["t", "y_1", "y_2"]

    def test_missing_config_file_is_config_error(self, capsys):
        assert main(["green", "--config", "/nonexistent/run.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err
