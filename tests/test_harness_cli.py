import csv
import json

import numpy as np
import pytest

from nsocp import cli, harness
from nsocp.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_SOLVER_FAILURE, main
from nsocp.examples import _profile, _profile_dd, build_example1, build_example2
from nsocp.fe_mesh import build_mesh, build_space, interpolate
from nsocp.harness import CSV_HEADER, RunConfig, estimate_order, run_cell, run_sweep
from nsocp.kkt_solver import zero_point
from nsocp.regpath import PathReport
from nsocp.state_solver import NewtonReport


def strict_json(path):
    """Parse a file as standard JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


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

    def test_example2_two_subdivisions_rejected(self):
        # the one interior node lies on {x1 = 1/2}, where the exact state is 0
        with pytest.raises(ValueError, match="at least 3 subdivisions"):
            build_example2(build_space(build_mesh(2)))
        build_example2(build_space(build_mesh(3)))

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

    @pytest.mark.parametrize("h, err", [
        ([0.1, np.nan, 0.025], [1e-2, 2.5e-3, 6e-4]),
        ([0.1, 0.05, 0.025], [1e-2, np.nan, 6e-4]),
        ([0.1, np.inf, 0.025], [1e-2, 2.5e-3, 6e-4]),
        ([0.1, 0.05, 0.025], [np.inf, 2.5e-3, 6e-4]),
    ], ids=["nan-h", "nan-err", "inf-h", "inf-err"])
    def test_nonfinite_entries_rejected(self, h, err):
        with pytest.raises(ValueError, match="entries must be positive"):
            estimate_order(h, err)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_even_mesh_with_example1(self):
        with pytest.raises(ValueError):
            RunConfig(m_list=[8]).validate()
        RunConfig(example=2, m_list=[8]).validate()

    def test_two_subdivisions_with_example2(self):
        with pytest.raises(ValueError, match="at least 3 mesh subdivisions"):
            RunConfig(example=2, m_list=[4, 2]).validate()
        RunConfig(example=2, m_list=[3, 4]).validate()

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

    def test_state_writes_vtk(self, tmp_path, capsys):
        code = main(["state", "--example", "1", "--m", "9", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "state.vtk").exists()
        assert "state solve: converged=True" in capsys.readouterr().out

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

    def test_kkt_report_nonfinite_residual_is_null(self, tmp_path, monkeypatch):
        def diverging(data, init=None):
            return zero_point(data.ops), NewtonReport(
                False, 2, [1.0, np.float64(np.inf), np.float64(np.nan)],
                "non-finite residual")

        monkeypatch.setattr(harness, "solve_kkt", diverging)
        code = main(["kkt", "--example", "2", "--m", "5", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER_FAILURE
        report = strict_json(tmp_path / "kkt.json")
        assert report["status"] == "no_conv"
        assert report["residual_history"] == [1.0, None, None]

    def test_regpath_nonfinite_residual_is_null(self, tmp_path, monkeypatch):
        def aborting(data, cfg):
            reports = [NewtonReport(True, 2, [1.0, 1e-13]),
                       NewtonReport(False, 1, [1.0, np.nan], "non-finite residual")]
            return zero_point(data.ops), PathReport(
                [1e-1, 1e-2], reports, [np.float64(np.inf)], aborted=True)

        monkeypatch.setattr(cli, "run_path", aborting)
        code = main(["regpath", "--example", "1", "--m", "5", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER_FAILURE
        report = strict_json(tmp_path / "regpath.json")
        assert report["aborted"]
        assert [s["limit_residual"] for s in report["steps"]] == [None, None]

    def test_regpath_first_eps_failure_writes_report(self, tmp_path):
        # example 2 with alpha = 1e-6 on this mesh fails its first solve, at
        # eps = 1e-3: the report is written, and no VTK of a point it lacks
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"eps_schedule": [1e-3, 1e-6]}))
        out = tmp_path / "out"
        code = main(["regpath", "--config", str(cfg), "--example", "2", "--m", "17",
                     "--alpha", "1e-6", "--out", str(out)])
        assert code == EXIT_SOLVER_FAILURE
        assert strict_json(out / "regpath.json") == {"aborted": True, "steps": [
            {"eps": 1e-3, "iterations": 50, "converged": False, "limit_residual": None}]}
        assert not (out / "regpath.vtk").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"])
    def test_config_must_hold_an_object(self, text, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["kkt", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "must hold a JSON object" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["state", "kkt", "regpath", "check"])
    def test_one_cell_commands_reject_lists(self, mode, tmp_path, capsys):
        # each of these solves one cell; a second value of a list, from the
        # flags or from the config file, is refused before anything is solved
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        for flags, raw in ((["--m", "9", "--m", "17"], {}),
                           (["--alpha", "1e-4", "--alpha", "1e-2"], {}),
                           (["--gamma", "1e-4", "--gamma", "1e-2"], {}),
                           (["--config", str(cfg)], {"m_list": [9, 17]}),
                           (["--config", str(cfg)], {"m_list": [9], "alpha_list": [1e-4, 1e-2]}),
                           (["--config", str(cfg), "--m", "9"], {"gamma_list": [1e-4, 1e-2]})):
            cfg.write_text(json.dumps(raw))
            code = main([mode, "--example", "1", *flags, "--out", str(out)])
            assert code == EXIT_CONFIG_ERROR, flags
            assert capsys.readouterr().err.startswith("configuration error:")
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["state", "kkt", "regpath", "check", "sweep"])
    def test_out_that_cannot_be_a_directory(self, mode, tmp_path, capsys, monkeypatch):
        # an existing file, or a path below one, is refused before any solve
        def no_solve(m):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(cli, "build_mesh", no_solve)
        monkeypatch.setattr(harness, "build_mesh", no_solve)
        afile = tmp_path / "afile"
        afile.write_text("keep")
        for out in (afile, afile / "below"):
            code = main([mode, "--example", "1", "--m", "9", "--out", str(out)])
            assert code == EXIT_CONFIG_ERROR, out
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and str(afile) in err, err
            assert afile.read_text() == "keep"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("mode", ["state", "kkt", "regpath", "check", "sweep"])
    def test_example2_two_subdivisions_is_a_configuration_error(self, mode, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([mode, "--example", "2", "--m", "2", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    def test_one_value_from_the_flags_overrides_a_config_list(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m_list": [9, 17]}))
        code = main(["state", "--config", str(cfg), "--m", "5", "--example", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "state.vtk").exists()

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
