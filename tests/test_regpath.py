import numpy as np
import pytest

from nsocp.examples import build_example1
from nsocp.fe_mesh import build_mesh, build_space
from nsocp.kkt_solver import solve_kkt
from nsocp.regpath import (
    RegPathConfig,
    run_path,
    solve_regularized_kkt,
    verify_lemma_rate,
)
from nsocp.state_solver import StateProblem


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

    def test_unreachable_tolerance_raises(self, ex1_small):
        _, data, _ = ex1_small
        with pytest.raises(RuntimeError):
            run_path(data, RegPathConfig((1e-1,), max_iter=1))


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
