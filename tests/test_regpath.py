import gc

import numpy as np
import pytest
import scipy.sparse as sp

from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import assemble_operators, build_mesh, build_space
from nsocp import regpath, sparse_core
from nsocp.kkt_solver import solve_kkt
from nsocp.nonsmooth import (
    SmoothedMaxParams,
    smoothed_max_prime,
    smoothed_max_second,
)
from nsocp.regpath import (
    PathAbortedError,
    RegPathConfig,
    run_path,
    solve_regularized_kkt,
    verify_lemma_rate,
)
from nsocp.state_solver import NewtonReport, StateProblem


@pytest.fixture(scope="module")
def ex1_small():
    space = build_space(build_mesh(9))
    data, exact = build_example1(space)
    return space, data, exact


@pytest.fixture(scope="module")
def path_result(ex1_small):
    _, data, _ = ex1_small
    cfg = RegPathConfig(tuple(10.0 ** -k for k in range(1, 7)))
    return run_path(data, cfg)


class TestConfig:
    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            RegPathConfig(())

    def test_must_decrease(self):
        with pytest.raises(ValueError):
            RegPathConfig((1e-2, 1e-1))
        with pytest.raises(ValueError):
            RegPathConfig((1e-1, 1e-1))

    def test_must_be_positive(self):
        for sched in ((1e-1, 0.0), (1e-1, np.nan), (np.inf, 1e-1), (True, 1e-1)):
            with pytest.raises(ValueError):
                RegPathConfig(sched)


class TestSolveRegularizedKkt:
    def test_zero_data_zero_solution(self, ex1_small):
        space, data, _ = ex1_small
        from nsocp.kkt_solver import KktConfig, ProblemData
        zero_data = ProblemData(ops=data.ops, f=space.zero(), y_d=space.zero(),
                                config=KktConfig(alpha=1.0, gamma=1.0))
        (y, p), rep = solve_regularized_kkt(zero_data, 1e-2)
        assert rep.converged and rep.iterations == 0
        assert np.allclose(y.coeffs, 0.0) and np.allclose(p.coeffs, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_init_rejected(self, ex1_small, bad):
        space, data, _ = ex1_small
        y0 = np.zeros(space.n)
        y0[space.n // 2] = bad
        with pytest.raises(ValueError):
            solve_regularized_kkt(data, 1e-2, (y0, np.zeros(space.n)))

    def test_single_step_path_matches_direct_solve(self, ex1_small):
        _, data, _ = ex1_small
        (y, p), rep = solve_regularized_kkt(data, 1e-3)
        assert rep.converged
        pt, path_rep = run_path(data, RegPathConfig((1e-3,)))
        assert not path_rep.aborted
        assert np.array_equal(pt.y.coeffs, y.coeffs)
        assert np.array_equal(pt.p.coeffs, p.coeffs)

    @pytest.mark.parametrize("m, seed, plant", [
        pytest.param(5, 0, False, id="5-0"), pytest.param(9, 1, False, id="9-1"),
        pytest.param(9, 2, False, id="9-2"), pytest.param(9, 3, True, id="9-3-zero")])
    def test_step_matches_dense_solve_of_jacobian(self, m, seed, plant, monkeypatch):
        space = build_space(build_mesh(m))
        data, _ = build_example2(space, alpha=1e-3, gamma=1e-12)
        ops, n, eps = data.ops, space.n, 1e-2
        params = SmoothedMaxParams(eps)
        rng = np.random.default_rng(seed)
        y = rng.uniform(-2 * eps, 2 * eps, n)  # inside and outside the smoothing band
        p = rng.standard_normal(n)
        if plant:
            # d_i max_eps''(y_i) p_i = M_ii: the (p, y) diagonal entry is 0
            i = np.flatnonzero((y > 0) & (y < eps))[0]
            p[i] = ops.M.diagonal()[i] / (ops.d[i] * smoothed_max_second(params, y)[i])
        steps, refined, factorised = [], [], []

        def one_step(x0, residual, step, tol, max_iter):
            r = residual(x0)
            steps.append((r, step(x0, r)))
            return x0, NewtonReport(False, 0, [])

        def recording_refine(lu, k, b):
            refined.append(k.copy())
            return None  # so the step factorises afresh

        def recording_splu(k, **kwargs):
            factorised.append(k)
            return splu(k, **kwargs)

        splu = regpath.splu
        monkeypatch.setattr(regpath, "newton", one_step)
        monkeypatch.setattr(regpath, "refine", recording_refine)
        monkeypatch.setattr(regpath, "splu", recording_splu)
        solve_regularized_kkt(data, eps, (y, p), held=[None])
        (r, dx), = steps

        a, mm, d = ops.A.toarray(), ops.M.toarray(), ops.d
        j11 = a + np.diag(d * smoothed_max_prime(params, y))
        j21 = np.diag(d * smoothed_max_second(params, y) * p) - mm
        jac = np.block([[j11, mm / data.config.alpha], [j21, j11]])
        want = np.linalg.solve(jac, -r)
        assert np.linalg.norm(dx - want) <= 1e-12 * np.linalg.norm(want)
        # unknowns numbered node by node, (y_i, p_i) in nested-dissection
        # order, and stored entry for entry as sp.bmat and the permutation
        # store them: the refined and the factorised matrix are that one
        order = np.ravel(np.column_stack([space.nd_order, space.nd_order + n]))
        j11 = ops.A + sp.diags(d * smoothed_max_prime(params, y))
        j21 = sp.diags(d * smoothed_max_second(params, y) * p) - ops.M
        ref = sp.bmat([[j11, ops.M / data.config.alpha], [j21, j11]], format="csr")
        ref = ref[order][:, order]
        assert ref.nnz == 2 * (ops.A.nnz + ops.M.nnz) - plant  # the planted 0 is not stored
        for got, want in ((refined[0], ref), (factorised[0], ref.tocsc())):
            assert got.format == want.format and got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("m", [5, 9])
    def test_refill_positions_index_the_pair_diagonals(self, m):
        # yy, pp and py index the (2i, 2i), (2i + 1, 2i + 1) and (2i + 1, 2i)
        # entries, each once, node by node
        ops = assemble_operators(build_space(build_mesh(m)))
        jac, order, yy, pp, py, a_diag, m_diag = regpath._pair_jacobian(ops, 1e-3)
        rows = np.repeat(np.arange(jac.shape[0]), np.diff(jac.indptr))
        i = np.arange(ops.space.n)
        for pos, row, col in ((yy, 2 * i, 2 * i), (pp, 2 * i + 1, 2 * i + 1),
                              (py, 2 * i + 1, 2 * i)):
            assert np.array_equal(rows[pos], row)
            assert np.array_equal(jac.indices[pos], col)
            assert np.sum((rows == row[:, None]) & (jac.indices == col[:, None])) == ops.space.n
        nd = ops.space.nd_order
        assert np.array_equal(order, np.column_stack([nd, nd + ops.space.n]).ravel())
        assert np.array_equal(jac.data[yy], a_diag) and np.array_equal(jac.data[pp], a_diag)
        assert np.array_equal(jac.data[py], -m_diag)
        assert np.array_equal(a_diag, ops.A.diagonal()[nd])
        assert np.array_equal(m_diag, ops.M.diagonal()[nd])


class TestRunPath:
    def test_limit_residual_strictly_decreasing(self, path_result):
        _, report = path_result
        res = report.limit_residuals
        assert len(res) == 6
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_limit_residual_scales_linearly_with_eps(self, path_result):
        # the distance to the limit system is O(eps): each tenfold eps
        # reduction shrinks the residual by close to a factor ten
        _, report = path_result
        res = report.limit_residuals
        for a, b in zip(res, res[1:]):
            assert a / b == pytest.approx(10.0, rel=0.2)

    def test_warm_start_keeps_inner_iterations_low(self, path_result):
        _, report = path_result
        iters = [r.iterations for r in report.inner_reports]
        assert all(i <= iters[0] for i in iters[1:])
        assert max(iters[1:]) <= 3

    def test_final_point_near_limit_solution(self, ex1_small, path_result):
        _, data, _ = ex1_small
        pt, _ = path_result
        pt_limit, rep = solve_kkt(data)
        assert rep.converged
        assert np.max(np.abs(pt.y.coeffs - pt_limit.y.coeffs)) < 1e-6
        assert np.max(np.abs(pt.p.coeffs - pt_limit.p.coeffs)) < 1e-8

    def test_multiplier_in_unit_interval(self, path_result):
        pt, _ = path_result
        assert pt.chi.coeffs.min() >= 0.0
        assert pt.chi.coeffs.max() <= 1.0

    def test_aborted_path_returns_last_converged_point(self, monkeypatch):
        # at alpha = 1e-6 the inner solve fails at the fourth eps; the path
        # returns the point of the third, as a path that stops there does
        monkeypatch.setattr(regpath, "MAX_ITER", 6)
        space = build_space(build_mesh(9))
        data, _ = build_example2(space, alpha=1e-6, gamma=1e-12)
        sched = tuple(10.0 ** -k for k in range(1, 9))
        pt, report = run_path(data, RegPathConfig(sched))
        assert report.aborted
        assert len(report.limit_residuals) == 3
        pt_cut, report_cut = run_path(data, RegPathConfig(sched[:3]))
        assert not report_cut.aborted
        for got, want in ((pt.y, pt_cut.y), (pt.p, pt_cut.p), (pt.chi, pt_cut.chi)):
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_aborting_path_runs_each_eps_once(self, monkeypatch):
        # example 2 on this mesh fails its inner solve at eps = 1e-5; that
        # solve ends the path, and every Newton step run is in the report
        space = build_space(build_mesh(17))
        data, _ = build_example2(space, alpha=1e-4, gamma=1e-12)
        runs = []
        newton = regpath.newton

        def counting_newton(*args, **kwargs):
            x, rep = newton(*args, **kwargs)
            runs.append(rep.iterations)
            return x, rep

        monkeypatch.setattr(regpath, "newton", counting_newton)
        _, report = run_path(data, RegPathConfig(tuple(10.0 ** -k for k in range(1, 7))))
        assert report.aborted
        assert report.eps_values[-1] == 1e-5
        assert report.failure_reason == "inner solve failed at eps = 1e-05"
        assert [rep.iterations for rep in report.inner_reports] == [2, 2, 2, 3, 50]
        assert [rep.converged for rep in report.inner_reports] == [True] * 4 + [False]
        assert runs == [rep.iterations for rep in report.inner_reports]
        assert sum(runs) == 59

    def test_unreachable_tolerance_raises(self, ex1_small, monkeypatch):
        _, data, _ = ex1_small
        monkeypatch.setattr(regpath, "MAX_ITER", 1)
        with pytest.raises(RuntimeError):
            run_path(data, RegPathConfig((1e-1,)))

    def test_first_eps_failure_carries_its_report(self, ex1_small, monkeypatch):
        _, data, _ = ex1_small
        monkeypatch.setattr(regpath, "MAX_ITER", 1)
        with pytest.raises(PathAbortedError,
                           match="regularization path produced no converged iterate") as exc:
            run_path(data, RegPathConfig((1e-1, 1e-2)))
        assert isinstance(exc.value, RuntimeError)
        report = exc.value.report
        assert report.aborted and report.eps_values == [1e-1]
        assert report.failure_reason == "inner solve failed at eps = 0.1"
        assert [(r.converged, r.iterations) for r in report.inner_reports] == [(False, 1)]
        assert report.limit_residuals == []


def path_iterates(data, cfg, monkeypatch):
    """run_path's report, and every (y, p) its Newton solves evaluate the
    residual at."""
    seen = []
    newton = regpath.newton

    def recording(x0, residual, step, tol, max_iter):
        def recorded(x):
            seen.append(x.copy())
            return residual(x)
        return newton(x0, recorded, step, tol, max_iter)

    with monkeypatch.context() as mp:
        mp.setattr(regpath, "newton", recording)
        _, report = run_path(data, cfg)
    return seen, report


@pytest.mark.parametrize("counting_splu", [regpath], indirect=True, ids=["regpath"])
class TestPathFactorisationReuse:
    SCHEDULE = RegPathConfig(tuple(10.0 ** -k for k in range(1, 7)))

    @pytest.mark.parametrize("build", [build_example1, build_example2])
    def test_iterates_match_fresh_lu(self, build, counting_splu, monkeypatch):
        data, _ = build(build_space(build_mesh(17)))
        held, rep = path_iterates(data, self.SCHEDULE, monkeypatch)
        calls = counting_splu.calls
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)  # every step fresh
        fresh, rep_fresh = path_iterates(data, self.SCHEDULE, monkeypatch)
        steps = sum(r.iterations for r in rep_fresh.inner_reports)
        assert counting_splu.calls - calls == steps  # one LU per step
        assert calls < steps  # so some steps were solved by refinement
        # example 2 stops at eps = 1e-5 on this mesh either way, after a
        # failed inner solve
        assert rep.aborted == rep_fresh.aborted
        for got, want in zip(rep.inner_reports, rep_fresh.inner_reports, strict=True):
            assert (got.converged, got.iterations) == (want.converged, want.iterations)
        assert rep.limit_residuals == pytest.approx(rep_fresh.limit_residuals, rel=1e-10)
        assert len(held) == len(fresh)
        for x, x0 in zip(held, fresh):
            assert np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0)

    def test_nothing_held_after_return(self, ex1_small, counting_splu):
        _, data, _ = ex1_small
        _, report = run_path(data, self.SCHEDULE)
        assert not report.aborted and counting_splu.calls >= 1
        gc.collect()
        assert all(ref() is None for ref in counting_splu.refs)

    def test_nothing_held_after_raise(self, ex1_small, counting_splu, monkeypatch):
        _, data, _ = ex1_small
        calls = []

        def failing_second_step(params, y):
            calls.append(y)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return smoothed_max_second(params, y)

        monkeypatch.setattr(regpath, "smoothed_max_second", failing_second_step)
        with pytest.raises(RuntimeError, match="interrupted") as excinfo:
            run_path(data, self.SCHEDULE)
        assert counting_splu.calls == 1
        gc.collect()
        # the traceback keeps the frames of run_path and of its step alive
        assert excinfo.tb is not None
        assert counting_splu.refs[0]() is None


class TestPathJacobianLayout:
    SCHEDULE = RegPathConfig(tuple(10.0 ** -k for k in range(1, 7)))

    @pytest.mark.parametrize("build", [build_example1, build_example2])
    def test_laid_out_once_with_the_iterates_of_one_per_solve(self, build, monkeypatch):
        # example 2 on this mesh fails its inner solve at eps = 1e-5, so the
        # path's layout also serves a solve that does not converge
        data, _ = build(build_space(build_mesh(17)))
        layouts = []
        pair_jacobian = regpath._pair_jacobian

        def counting(*args):
            layouts.append(1)
            return pair_jacobian(*args)

        monkeypatch.setattr(regpath, "_pair_jacobian", counting)
        shared, _ = path_iterates(data, self.SCHEDULE, monkeypatch)
        assert len(layouts) == 1
        solve = regpath.solve_regularized_kkt

        def own_layout(*args, _jacobian=None, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(regpath, "solve_regularized_kkt", own_layout)
        own, rep = path_iterates(data, self.SCHEDULE, monkeypatch)
        assert len(layouts) == 2 + len(rep.inner_reports)
        assert len(shared) == len(own)
        for x, x0 in zip(shared, own):
            assert np.array_equal(x, x0)


class TestVerifyLemmaRate:
    def test_linear_rate_on_sign_changing_state(self, ex1_small):
        _, data, _ = ex1_small
        prob = StateProblem(data.ops, data.f)
        rep = verify_lemma_rate(prob, data.ops.space.zero(),
                                [10.0 ** -k for k in range(1, 5)])
        assert not rep.degenerate
        assert rep.slope == pytest.approx(1.0, abs=0.1)
        # gaps shrink monotonically with eps
        assert all(b < a for a, b in zip(rep.gaps, rep.gaps[1:]))

    def test_warm_start_matches_cold_start(self, monkeypatch):
        space = build_space(build_mesh(33))
        data, _ = build_example1(space)
        prob = StateProblem(data.ops, data.f)
        eps_list = [10.0 ** -k for k in range(1, 5)]
        steps = []
        regularized = regpath.solve_state_regularized

        def counting(prob, u, eps, init=None):
            ye, rep = regularized(prob, u, eps, init=init)
            steps.append(rep.iterations)
            return ye, rep

        monkeypatch.setattr(regpath, "solve_state_regularized", counting)
        warm = verify_lemma_rate(prob, space.zero(), eps_list)
        warm_steps = sum(steps)
        monkeypatch.setattr(regpath, "solve_state_regularized",
                            lambda prob, u, eps, init=None: counting(prob, u, eps))
        cold = verify_lemma_rate(prob, space.zero(), eps_list)
        assert warm_steps < sum(steps) - warm_steps
        assert warm.gaps == pytest.approx(cold.gaps, rel=1e-8)
        assert warm.slope == pytest.approx(cold.slope, rel=1e-8)

    def test_degenerate_when_smoothing_inactive(self, ex1_small):
        # uniformly negative state: for eps below |y| the smoothing never
        # activates and the regularized state equals the exact one
        space, data, _ = ex1_small
        prob = StateProblem(data.ops, space.function(-10.0 * np.ones(space.n)))
        rep = verify_lemma_rate(prob, space.zero(), [1e-3, 1e-4, 1e-5])
        assert rep.degenerate
        assert rep.slope is None
        assert max(rep.gaps) < 1e-14

    def test_input_validation(self, ex1_small):
        _, data, _ = ex1_small
        prob = StateProblem(data.ops, data.f)
        with pytest.raises(ValueError):
            verify_lemma_rate(prob, data.ops.space.zero(), [1e-1, 1e-2])
        with pytest.raises(ValueError):
            verify_lemma_rate(prob, data.ops.space.zero(), [1e-1, 8e-2, 6e-2])
