import csv
import json

import numpy as np
import pytest

from nsocp.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from nsocp.examples import _profile, _profile_dd, build_example1, build_example2
from nsocp.fe_mesh import build_mesh, build_space, interpolate
from nsocp.harness import CSV_HEADER, RunConfig, estimate_order, run_cell, run_sweep


class TestExampleConstruction:
    def test_profile_is_c2_at_junction(self):
        # value, slope and curvature of the quartic branch all vanish as
        # t -> 0^-, matching the zero branch
        eps = 1e-5
        assert abs(_profile(0.5 - eps)) < 1e-14
        assert abs((_profile(0.5) - _profile(0.5 - eps)) / eps) < 1e-9
        assert abs(_profile_dd(0.5 - eps)) < 4 * eps  # g'' ~ 3t near 0
        assert _profile(0.5) == 0.0 and _profile_dd(0.5) == 0.0

    def test_example2_state_nonpositive(self):
        x = np.linspace(0, 1, 501)
        xx, yy = np.meshgrid(x, x)
        vals = _profile(xx) * np.sin(np.pi * yy)
        assert np.all(vals <= 0.0)
        # vanishes identically on the right half
        assert np.all(vals[:, x >= 0.5] == 0.0)

    def test_example1_no_node_on_zero_line(self):
        space = build_space(build_mesh(33))
        _, exact = build_example1(space)
        y = interpolate(space, exact.y)
        assert np.min(np.abs(y.coeffs)) > 1e-3

    def test_example1_even_mesh_rejected(self):
        with pytest.raises(ValueError):
            build_example1(build_space(build_mesh(8)))

    def test_example2_data_consistency(self):
        # interpolated exact state satisfies the state equation with the
        # constructed forcing up to discretization error
        space = build_space(build_mesh(17))
        data, exact = build_example2(space)
        y = interpolate(space, exact.y)
        u = interpolate(space, exact.u)
        a = data.ops.A
        m = data.ops.M
        d = data.ops.d
        res = a @ y.coeffs + d * np.maximum(y.coeffs, 0.0) \
            - m @ (u.coeffs + data.f.coeffs)
        assert np.linalg.norm(res) < 1e-2 * np.linalg.norm(m @ data.f.coeffs)


class TestEstimateOrder:
    def test_quadratic(self):
        h = [0.1, 0.05, 0.025, 0.0125]
        assert estimate_order(h, [c * c for c in h]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_errors(self):
        assert estimate_order([0.1, 0.05], [3.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_order([0.1], [0.01])
        with pytest.raises(ValueError):
            estimate_order([0.1, 0.05], [0.01])
        with pytest.raises(ValueError):
            estimate_order([0.1, 0.05], [0.01, 0.0])


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_even_mesh_with_example1(self):
        with pytest.raises(ValueError):
            RunConfig(m_list=[8]).validate()
        RunConfig(example=2, m_list=[8]).validate()

    def test_empty_lists(self):
        with pytest.raises(ValueError):
            RunConfig(m_list=[]).validate()
        with pytest.raises(ValueError):
            RunConfig(alpha_list=[]).validate()

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            RunConfig(example=3).validate()


class TestRunCellAndSweep:
    def test_converged_row_schema(self):
        row, pt, rep = run_cell(1, 9, 1e-4, 1e-4)
        assert row.status == "converged"
        assert row.h == pytest.approx(1.0 / 9.0)
        assert 0 < row.err_y_rel < 0.1
        assert row.err_chi_linf < 1e-10  # exact multiplier is nodal here
        cells = row.as_csv()
        assert len(cells) == len(CSV_HEADER)
        assert all(c != "" for c in cells)

    def test_no_conv_row_blank_errors(self):
        row, _, rep = run_cell(2, 9, 1e-6, 1e-12)
        assert row.status == "no_conv"
        assert row.err_y_rel is None and row.err_p is None
        cells = row.as_csv()
        assert cells[3] == cells[4] == cells[5] == ""
        assert cells[-1] == "no_conv"

    # today's failing cells of example 2 and how each one ends; a change of
    # LU ordering or of the pivot test shows up here first
    @pytest.mark.parametrize("m, alpha, gamma, iterations, reason", [
        (33, 1e-4, 1e-6, 25, "no convergence within iteration limit"),
        (65, 1e-4, 1e-6, 3, "matrix is singular (deficient pivot in row 5179)"),
        (65, 1e-6, 1e-12, 25, "no convergence within iteration limit"),
    ])
    def test_failing_cells_pinned(self, m, alpha, gamma, iterations, reason):
        row, _, rep = run_cell(2, m, alpha, gamma)
        assert row.status == "no_conv"
        assert (row.newton_iters, rep.iterations) == (iterations, iterations)
        assert rep.failure_reason == reason

    def test_sweep_deterministic(self, tmp_path):
        cfg1 = RunConfig(m_list=[5, 9], output_dir=str(tmp_path / "a"))
        cfg2 = RunConfig(m_list=[5, 9], output_dir=str(tmp_path / "b"))
        _, p1 = run_sweep(cfg1)
        _, p2 = run_sweep(cfg2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_csv_contents(self, tmp_path):
        cfg = RunConfig(m_list=[5, 9], output_dir=str(tmp_path))
        rows, path = run_sweep(cfg)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == CSV_HEADER
        assert len(parsed) == 1 + len(rows) == 3
        # values survive a text round trip at full precision
        assert float(parsed[1][0]) == rows[0].h


class TestCli:
    def test_sweep_exit_ok(self, tmp_path, capsys):
        code = main(["sweep", "--example", "1", "--m", "5", "--m", "9",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "table1.csv").exists()
        out = capsys.readouterr().out
        assert "fitted convergence order" in out

    def test_kkt_writes_report(self, tmp_path):
        code = main(["kkt", "--example", "2", "--m", "9", "--gamma", "1e-12",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "kkt.json").read_text())
        assert report["status"] == "converged"
        assert report["residual_history"][-1] < 1e-12
        assert (tmp_path / "kkt.vtk").exists()

    def test_check_passes_on_converged_solve(self, tmp_path):
        code = main(["check", "--example", "2", "--m", "9", "--gamma", "1e-12",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        checks = json.loads((tmp_path / "checks.json").read_text())
        assert checks["chi_admissible"]["passed"]
        assert checks["strong_sign"]["passed"]
        assert checks["primal_stationarity"]["passed"]
        assert checks["bouligand_residual"] < 1e-10

    def test_regpath_writes_schedule(self, tmp_path):
        code = main(["regpath", "--example", "1", "--m", "9", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "regpath.json").read_text())
        assert not report["aborted"]
        assert len(report["steps"]) == 6

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG_ERROR

    def test_unknown_config_key(self, tmp_path):
        # the subcommand picks the mode; a "mode" key is not a RunConfig field
        for raw in ({"bogus": 1}, {"mode": "kkt"}):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(raw))
            code = main(["sweep", "--config", str(cfg)])
            assert code == EXIT_CONFIG_ERROR, raw

    def test_invalid_config_value(self, tmp_path, monkeypatch):
        # no --out, which would override a bad output_dir; a wrongly accepted
        # value writes under tmp_path
        monkeypatch.chdir(tmp_path)
        for bad in ({"example": 3}, {"example": True}, {"m_list": [9.0]},
                    {"alpha_list": [-1]}, {"gamma_list": [float("nan")]},
                    {"eps_schedule": [float("nan")]}, {"output_dir": 5},
                    {"alpha_list": [True]}, {"gamma_list": [True]},
                    {"eps_schedule": [True]}):
            # a small mesh, so that a wrongly accepted value runs a quick solve
            raw = {"m_list": [5], **bad}
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(raw))
            code = main(["regpath", "--config", str(cfg)])
            assert code == EXIT_CONFIG_ERROR, raw

    def test_config_file_drives_sweep(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"example": 2, "m_list": [6],
                                   "output_dir": str(tmp_path / "out")}))
        code = main(["sweep", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "table2.csv").exists()

    def test_selftest(self, capsys):
        code = main(["selftest"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out
