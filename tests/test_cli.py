"""Tests for the command-line interface: configs, CSV outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from mlheat.cli import main


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

    def test_crossing_externals_is_numerical_failure(self, tmp_path, capsys):
        # chi_minus overtakes chi_plus inside [0, T]
        payload = {"chi_minus": [0.0, 1.0], "chi_plus": 1.0, "N": 3,
                   "degree": 1, "T": 2.0}
        cfg = write_config(tmp_path, "bad.json", payload)
        rc = main(["boundaries", "--config", cfg])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_invalid_degree_is_config_error(self, tmp_path):
        payload = {"chi_minus": -1.0, "chi_plus": 1.0, "N": 4, "degree": 5, "T": 2.0}
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["boundaries", "--config", cfg]) == 2


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

    def test_missing_config_file_is_config_error(self, capsys):
        assert main(["green", "--config", "/nonexistent/run.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err
