import numpy as np
import pytest

from nsocp import state_solver, stationarity
from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import assemble_operators, build_mesh, build_space, interpolate
from nsocp.kkt_solver import KktConfig, KktPoint, ProblemData, recover_control, solve_kkt
from nsocp.state_solver import (
    StateProblem,
    check_symmetric_derivative,
    directional_derivative,
    solve_state,
)
from nsocp.stationarity import (
    check_bouligand_residual,
    check_chi_admissible,
    check_primal_stationarity,
    check_strong_sign,
    eval_reduced_objective,
    sample_directions,
)


@pytest.fixture(scope="module")
def space9():
    return build_space(build_mesh(9))


@pytest.fixture(scope="module")
def ex2_solution(space9):
    data, exact = build_example2(space9)
    pt, rep = solve_kkt(data)
    assert rep.converged
    return data, pt


@pytest.fixture(scope="module")
def tiny():
    space = build_space(build_mesh(2))
    return space, assemble_operators(space)


class TestChiAdmissible:
    def test_indicator_multiplier_passes(self, space9):
        y = interpolate(space9, lambda x1, x2: np.sin(np.pi * x1) * np.sin(2 * np.pi * x2))
        chi = space9.function((y.coeffs > 0).astype(float))
        rep = check_chi_admissible(y, chi)
        assert rep.passed
        assert rep.n_violations == 0

    def test_half_multiplier_at_positive_state_fails(self, tiny):
        space, _ = tiny
        y = space.function(np.array([1.0]))
        chi = space.function(np.array([0.5]))
        rep = check_chi_admissible(y, chi)
        assert not rep.passed
        assert rep.n_violations == 1
        assert rep.max_deviation == pytest.approx(0.5)

    def test_zero_band_allows_any_unit_interval_value(self, tiny):
        space, _ = tiny
        y = space.function(np.array([0.0]))
        for c in (0.0, 0.37, 1.0):
            assert check_chi_admissible(y, space.function(np.array([c]))).passed
        assert not check_chi_admissible(y, space.function(np.array([1.5]))).passed
        assert not check_chi_admissible(y, space.function(np.array([-0.1]))).passed

    def test_tolerance_relaxes(self, tiny):
        space, _ = tiny
        y = space.function(np.array([1.0]))
        chi = space.function(np.array([1.0 + 5e-7]))
        assert not check_chi_admissible(y, chi).passed
        assert check_chi_admissible(y, chi, chi_tol=1e-6).passed

    def test_space_mismatch(self, tiny, space9):
        space, _ = tiny
        with pytest.raises(ValueError):
            check_chi_admissible(space.zero(), space9.zero())


class TestStrongSign:
    def test_nonpositive_adjoint_passes(self, tiny):
        space, _ = tiny
        y = space.function(np.array([0.0]))
        assert check_strong_sign(y, space.function(np.array([-0.5]))).passed
        assert check_strong_sign(y, space.function(np.array([0.0]))).passed

    def test_positive_adjoint_on_zero_set_fails(self, tiny):
        space, _ = tiny
        y = space.function(np.array([0.0]))
        rep = check_strong_sign(y, space.function(np.array([1.0])))
        assert not rep.passed
        assert rep.n_violations == 1
        assert rep.max_violation == pytest.approx(1.0, abs=1e-9)

    def test_empty_band_trivially_passes(self, tiny):
        space, _ = tiny
        y = space.function(np.array([2.0]))
        rep = check_strong_sign(y, space.function(np.array([7.0])))
        assert rep.passed
        assert rep.n_band_nodes == 0


class TestConvergedPoint:
    def test_full_hierarchy(self, ex2_solution, space9):
        data, pt = ex2_solution
        assert check_bouligand_residual(data, pt) <= 1e-10
        assert check_chi_admissible(pt.y, pt.chi, chi_tol=1e-6).passed
        assert check_strong_sign(pt.y, pt.p).passed
        rep = check_primal_stationarity(
            data, pt, sample_directions(space9, n_random=5))
        assert rep.passed
        assert rep.min_value >= -1e-8

    def test_perturbed_adjoint_fails_primal(self, ex2_solution, space9):
        data, pt = ex2_solution
        bad = KktPoint(pt.y, space9.function(pt.p.coeffs + 0.01), pt.chi)
        rep = check_primal_stationarity(
            data, bad, sample_directions(space9, n_random=5))
        assert not rep.passed
        assert rep.min_value < -1e-4

    def test_values_match_difference_quotients_of_objective(self, ex2_solution, space9):
        # away from the optimum, each sampled value (y - y_d, M delta) + alpha (u, M h)
        # is the one-sided derivative of the reduced objective along +-h
        data, pt = ex2_solution
        alpha = data.config.alpha
        shifted = KktPoint(pt.y, space9.function(pt.p.coeffs - 0.01 * alpha), pt.chi)
        u = recover_control(shifted, alpha)
        y, rep = solve_state(StateProblem(data.ops, data.f), u)
        assert rep.converged
        dirs = sample_directions(space9, n_random=3)
        values = check_primal_stationarity(data, KktPoint(y, shifted.p, pt.chi), dirs).values
        t = 1e-7
        j0 = eval_reduced_objective(data, u)
        quotients = [
            (eval_reduced_objective(data, space9.function(u.coeffs + t * sgn * h.coeffs)) - j0) / t
            for h in dirs for sgn in (1.0, -1.0)]
        assert len(values) == len(quotients) == 2 * len(dirs)
        assert max(abs(v) for v in values) > 1e-6
        assert np.max(np.abs(np.array(values) - np.array(quotients))) <= 1e-9


class TestLinearDerivativeShortcut:
    """Where the zero band of y is empty, S'(u; .) is linear and its discrete
    solve odd in h bit for bit, so ``check_primal_stationarity`` solves each
    direction once; a point with a nonempty band solves each sign."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(prob, y, h, zero_tol):
            calls.append(h)
            return directional_derivative(prob, y, h, zero_tol)

        monkeypatch.setattr(stationarity, "directional_derivative", counting)
        return calls

    @staticmethod
    def two_solve_values(data, pt, dirs):
        """The values of the loop that solves along h and along -h."""
        ops, alpha = data.ops, data.config.alpha
        prob = StateProblem(ops, data.f)
        u = recover_control(pt, alpha)
        misfit = ops.M @ (pt.y.coeffs - data.y_d.coeffs)
        values = []
        for h in dirs:
            for sgn in (1.0, -1.0):
                hs = ops.space.function(sgn * h.coeffs)
                delta, rep = directional_derivative(prob, pt.y, hs)
                assert rep.converged
                values.append(float(misfit @ delta.coeffs
                                    + alpha * (u.coeffs @ (ops.M @ hs.coeffs))))
        return values

    def test_empty_band_solves_once_per_direction(self, counted):
        space = build_space(build_mesh(17))
        data, _ = build_example1(space)
        pt, rep = solve_kkt(data)
        assert rep.converged and check_strong_sign(pt.y, pt.p).n_band_nodes == 0
        dirs = sample_directions(space, n_random=20)
        got = check_primal_stationarity(data, pt, dirs)
        assert len(counted) == len(dirs)
        want = self.two_solve_values(data, pt, dirs)
        assert len(got.values) == 2 * len(dirs)
        assert np.array_equal(np.array(got.values).view(np.uint64),
                              np.array(want).view(np.uint64))

    def test_nonempty_band_solves_each_sign(self, counted):
        # the interpolated exact state of example 2 vanishes on the right half
        space = build_space(build_mesh(17))
        data, exact = build_example2(space)
        y = interpolate(space, exact.y)
        pt = KktPoint(y, interpolate(space, exact.p), space.zero())
        assert check_strong_sign(pt.y, pt.p).n_band_nodes > 0
        dirs = sample_directions(space, n_random=3)
        got = check_primal_stationarity(data, pt, dirs)
        assert len(counted) == 2 * len(dirs)
        assert [h.coeffs[0] for h in counted[1::2]] == [-h.coeffs[0] for h in dirs]
        assert got.values == self.two_solve_values(data, pt, dirs)

    def test_symmetric_derivative_solves_both_signs(self, monkeypatch):
        # the Gateaux test itself compares the two solves, so it never
        # takes the shortcut, even where the band is empty
        space = build_space(build_mesh(17))
        data, _ = build_example1(space)
        calls = []

        def counting(*args):
            calls.append(args)
            return directional_derivative(*args)

        prob = StateProblem(data.ops, data.f)
        y, _ = solve_state(prob, space.zero())
        assert check_strong_sign(y, space.zero()).n_band_nodes == 0
        monkeypatch.setattr(state_solver, "directional_derivative", counting)
        h = space.function(np.random.default_rng(8).standard_normal(space.n))
        assert check_symmetric_derivative(prob, space.zero(), h)
        assert len(calls) == 2


class TestHierarchySeparation:
    def test_zero_residual_point_can_fail_sign_condition(self, tiny):
        # hand-built single-node point: the limit system is satisfied
        # exactly yet the adjoint is positive on the zero set, so the
        # residual check alone cannot certify strong stationarity
        space, ops = tiny
        data = ProblemData(ops=ops,
                           f=space.function(np.array([1.0])),
                           y_d=space.function(np.array([-32.0])),
                           config=KktConfig(alpha=1.0, gamma=1.0))
        pt = KktPoint(space.function(np.array([0.0])),
                      space.function(np.array([1.0])),
                      space.function(np.array([0.0])))
        assert check_bouligand_residual(data, pt) <= 1e-15
        assert check_chi_admissible(pt.y, pt.chi).passed
        assert not check_strong_sign(pt.y, pt.p).passed


class TestReducedObjective:
    def test_zero_at_consistent_target(self, space9):
        data, _ = build_example2(space9)
        u = interpolate(space9, lambda x1, x2: x1 * (1 - x1) * x2 * (1 - x2))
        prob = StateProblem(data.ops, data.f)
        y, rep = solve_state(prob, u)
        assert rep.converged
        consistent = ProblemData(ops=data.ops, f=data.f, y_d=y, config=data.config)
        m = data.ops.M
        expect = 0.5 * data.config.alpha * u.coeffs @ (m @ u.coeffs)
        assert eval_reduced_objective(consistent, u) == pytest.approx(expect, rel=1e-12)

    def test_alpha_scaling(self, space9):
        data, _ = build_example2(space9)
        u = interpolate(space9, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        prob = StateProblem(data.ops, data.f)
        y, _ = solve_state(prob, u)
        vals = []
        for alpha in (1e-2, 2e-2):
            d = ProblemData(ops=data.ops, f=data.f, y_d=y,
                            config=KktConfig(alpha=alpha, gamma=1e-4))
            vals.append(eval_reduced_objective(d, u))
        # tracking term vanishes, so the objective is linear in alpha
        assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-12)


class TestSampleDirections:
    def test_deterministic_and_counted(self, space9):
        a = sample_directions(space9, n_random=3)
        b = sample_directions(space9, n_random=3)
        assert len(a) == 3 + 5
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_contains_constant_direction(self, space9):
        dirs = sample_directions(space9, n_random=2)
        assert any(np.allclose(d.coeffs, 1.0) for d in dirs)
