import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import assemble_operators, build_mesh, build_space, interpolate
from nsocp.kkt_solver import (
    IndexSets,
    KktConfig,
    KktPoint,
    ProblemData,
    apply_active_set_fix,
    index_sets,
    newton_matrix,
    recover_control,
    residual,
    solve_kkt,
    zero_point,
)
from nsocp.nonsmooth import subdiff_max_contains
from nsocp.sparse_core import SingularMatrixError, solve_linear
from nsocp.state_solver import StateProblem


@pytest.fixture(scope="module")
def tiny():
    """One-unknown discretization: A = [4], M = [0.125], D = [0.25]."""
    space = build_space(build_mesh(2))
    return space, assemble_operators(space)


def make_data(space, ops, f=0.0, y_d=0.0, alpha=1.0, gamma=1.0):
    return ProblemData(
        ops=ops,
        f=space.function(np.full(space.n, float(f))),
        y_d=space.function(np.full(space.n, float(y_d))),
        config=KktConfig(alpha=alpha, gamma=gamma),
    )


def make_point(space, y, p, chi):
    return KktPoint(space.function(np.atleast_1d(np.array(y, dtype=float))),
                    space.function(np.atleast_1d(np.array(p, dtype=float))),
                    space.function(np.atleast_1d(np.array(chi, dtype=float))))


class TestResidual:
    def test_zero_point_closed_form(self, tiny):
        # at (0,0,0): r1 = -M f, r2 = M y_d, r3 = 0
        space, ops = tiny
        data = make_data(space, ops, f=3.0, y_d=-2.0)
        r = residual(data, zero_point(ops))
        assert np.allclose(r, [-0.125 * 3.0, 0.125 * -2.0, 0.0])

    def test_zero_data_zero_residual(self, tiny):
        space, ops = tiny
        data = make_data(space, ops)
        assert np.allclose(residual(data, zero_point(ops)), 0.0)

    def test_third_block_zero_iff_subdifferential(self, tiny):
        # the prox reformulation must vanish exactly when chi is an
        # admissible multiplier at y, independent of the other residuals
        space, ops = tiny
        gamma = 0.25
        data = make_data(space, ops, gamma=gamma)
        for y in (-1.0, -gamma, 0.0, gamma / 2, gamma, 2 * gamma, 1.0):
            for chi in (0.0, 0.25, 1.0):
                pt = make_point(space, y, 0.0, chi)
                r3 = residual(data, pt)[2]
                assert (r3 == 0.0) == subdiff_max_contains(y, chi)


class TestIndexSets:
    def test_positive_state(self, tiny):
        space, _ = tiny
        pt = make_point(space, 1.0, 0.0, 1.0)
        sets = index_sets(pt, KktConfig(alpha=1.0, gamma=0.5))
        assert list(sets.i_plus) == [0]
        assert list(sets.i_gamma) == [0]  # y + gamma chi = 1.5 > gamma
        assert list(sets.i_crit) == []

    def test_critical_node(self, tiny):
        # y + gamma chi inside [0, gamma] and vanishing adjoint
        space, _ = tiny
        pt = make_point(space, 0.0, 0.0, 0.5)
        sets = index_sets(pt, KktConfig(alpha=1.0, gamma=1.0))
        assert list(sets.i_plus) == []
        assert list(sets.i_gamma) == []
        assert list(sets.i_crit) == [0]

    def test_negative_state(self, tiny):
        space, _ = tiny
        pt = make_point(space, -2.0, 1.0, 0.0)
        sets = index_sets(pt, KktConfig(alpha=1.0, gamma=1.0))
        assert list(sets.i_plus) == []
        assert list(sets.i_gamma) == [0]  # y + gamma chi = -2 < 0
        assert list(sets.i_crit) == []

    def test_nonzero_adjoint_blocks_criticality(self, tiny):
        space, _ = tiny
        pt = make_point(space, 0.0, 1e-6, 0.5)
        sets = index_sets(pt, KktConfig(alpha=1.0, gamma=1.0))
        assert list(sets.i_crit) == []


class TestNewtonMatrix:
    def test_hand_assembly_single_node(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 2.0, 2.0, 0.0)
        sets = index_sets(pt, data.config)
        out = newton_matrix(data, pt, sets).toarray()
        expect = np.array([
            [4.0 + 0.25, 0.125, 0.0],       # A + D 1_{y>0}, (1/alpha) M, 0
            [-0.125, 4.0, 0.25 * 2.0],      # -M, A + D chi, D p
            [0.0, 0.0, -0.25],              # D(1 - 1_gam), 0, -gamma D 1_gam
        ])
        assert np.allclose(out, expect)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_central_differences_of_residual(self, seed):
        # at least 0.02 away from the kinks of max (y = 0) and of prox
        # (y + gamma chi in {0, gamma}) the residual is a polynomial of degree
        # at most 2, so central differences reproduce its Jacobian up to rounding
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        n, gamma, h = space.n, 0.5, 1e-3
        rng = np.random.default_rng(seed)
        data = ProblemData(ops=ops, f=space.function(rng.standard_normal(n)),
                           y_d=space.function(rng.standard_normal(n)),
                           config=KktConfig(alpha=1e-2, gamma=gamma))

        def away_from_zero():
            return rng.choice([-1.0, 1.0], n) * rng.uniform(0.02, 1.0, n)

        y = away_from_zero()
        # w = y + gamma chi below 0, inside [0, gamma] or above gamma
        region = rng.integers(0, 3, n)
        w = rng.uniform(np.array([-1.0, 0.02, gamma + 0.02])[region],
                        np.array([-0.02, gamma - 0.02, gamma + 1.0])[region])
        x = np.concatenate([y, away_from_zero(), (w - y) / gamma])

        def point(x):
            return make_point(space, x[:n], x[n:2 * n], x[2 * n:])

        pt = point(x)
        jac = newton_matrix(data, pt, index_sets(pt, data.config)).toarray()
        fd = np.column_stack([(residual(data, point(x + h * e)) - residual(data, point(x - h * e)))
                              / (2 * h) for e in np.eye(3 * n)])
        assert np.abs(jac - fd).max() <= 1e-10 * np.abs(jac).max()

    def test_adjoint_coupling_block_is_minus_mass(self):
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        data = make_data(space, ops)
        pt = zero_point(ops)
        n = space.n
        full = newton_matrix(data, pt, index_sets(pt, data.config)).toarray()
        assert np.allclose(full[n:2 * n, :n], -ops.M.toarray())

    def test_critical_node_singular_without_fix(self, tiny):
        # a critical node zeroes the entire chi column: D p = 0 in the
        # adjoint row and -gamma D 1_gam = 0 in the prox row
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 0.0, 0.0, 0.5)
        sets = index_sets(pt, data.config)
        mat = newton_matrix(data, pt, sets)
        assert np.allclose(mat.toarray()[:, 2], 0.0)
        with pytest.raises(SingularMatrixError):
            solve_linear(mat, np.ones(3))

    def test_fix_restores_solvability_and_freezes_chi(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 0.0, 0.0, 0.5)
        sets = index_sets(pt, data.config)
        mat = newton_matrix(data, pt, sets)
        rhs = np.array([1.0, -1.0, 5.0])
        fixed, frhs = apply_active_set_fix(mat, rhs, sets)
        dense = fixed.toarray()
        assert np.allclose(dense[2], [0.0, 0.0, 1.0])
        assert frhs[2] == 0.0
        step = solve_linear(fixed, frhs)
        assert step[2] == 0.0  # chi component frozen
        # first two rows still solve the original 2x2 system
        assert np.allclose(dense[:2] @ step, rhs[:2])

    def test_fix_matches_row_by_row_reference(self):
        # reference: replace each critical prox row by its unit row in place
        rng = np.random.default_rng(5)
        n = 6
        dense = rng.standard_normal((3 * n, 3 * n)) * (rng.random((3 * n, 3 * n)) < 0.4)
        crit = np.array([0, 2, 5])
        sets = IndexSets(np.array([], dtype=int), np.array([], dtype=int), crit)
        fixed, _ = apply_active_set_fix(sp.csr_matrix(dense), np.ones(3 * n), sets)
        dense[2 * n + crit] = 0.0
        dense[2 * n + crit, 2 * n + crit] = 1.0
        assert np.array_equal(fixed.toarray(), dense)

    def test_fix_noop_without_critical_nodes(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 2.0, 2.0, 0.0)
        sets = index_sets(pt, data.config)
        mat = newton_matrix(data, pt, sets)
        rhs = np.ones(3)
        fixed, frhs = apply_active_set_fix(mat, rhs, sets)
        assert fixed is mat and frhs is rhs


@pytest.fixture(scope="module")
def ex1_solution():
    space = build_space(build_mesh(9))
    data, exact = build_example1(space)
    pt, rep = solve_kkt(data)
    return space, data, exact, pt, rep


class TestSolveKkt:
    def test_converges_fast(self, ex1_solution):
        _, data, _, pt, rep = ex1_solution
        assert rep.converged
        assert rep.iterations <= 6
        assert np.linalg.norm(residual(data, pt)) < data.config.tol_residual

    def test_quadratic_tail(self, ex1_solution):
        # locally superlinear: each residual is bounded by a modest multiple
        # of the square of its predecessor
        _, _, _, _, rep = ex1_solution
        hist = rep.residual_history
        assert len(hist) >= 3
        for a, b in zip(hist[1:], hist[2:]):
            assert b <= 1e3 * a * a

    def test_recovers_control_from_adjoint(self, ex1_solution):
        _, data, _, pt, _ = ex1_solution
        u = recover_control(pt, data.config.alpha)
        assert np.allclose(u.coeffs, -pt.p.coeffs / data.config.alpha)
        # the exact adjoint vanishes; only an O(h^2) discretization error remains
        assert np.max(np.abs(pt.p.coeffs)) < 1e-3

    def test_multiplier_stays_in_unit_interval(self):
        space = build_space(build_mesh(9))
        data, _ = build_example2(space)
        pt, rep = solve_kkt(data)
        assert rep.converged
        assert pt.chi.coeffs.min() >= -1e-6
        assert pt.chi.coeffs.max() <= 1.0 + 1e-6

    def test_gamma_invariance_of_solution(self):
        # with distinct tiny prox parameters the converged points satisfy
        # each other's optimality systems to near machine precision
        space = build_space(build_mesh(9))
        d12, _ = build_example2(space, gamma=1e-12)
        d10, _ = build_example2(space, gamma=1e-10)
        pt12, r12 = solve_kkt(d12)
        pt10, r10 = solve_kkt(d10)
        assert r12.converged and r10.converged
        assert np.linalg.norm(residual(d10, pt12)) < 1e-8
        assert np.linalg.norm(residual(d12, pt10)) < 1e-8

    def test_iteration_cap_reported(self, tiny):
        space, ops = tiny
        data = ProblemData(ops=ops, f=space.function(np.array([50.0])),
                           y_d=space.function(np.array([-10.0])),
                           config=KktConfig(alpha=1.0, gamma=1.0, max_iter=1))
        pt, rep = solve_kkt(data)
        assert not rep.converged
        assert rep.failure_reason is not None

    def test_warm_start_zero_iterations(self, ex1_solution):
        _, data, _, pt, _ = ex1_solution
        _, rep = solve_kkt(data, init=pt)
        assert rep.converged
        assert rep.iterations == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_init_rejected(self, tiny, bad):
        space, ops = tiny
        with pytest.raises(ValueError):
            solve_kkt(make_data(space, ops), init=make_point(space, 0.0, bad, 0.0))


class TestRecoverControl:
    def test_sign_and_scale(self, tiny):
        space, _ = tiny
        pt = make_point(space, 0.0, 2.0, 0.0)
        assert recover_control(pt, 0.5).coeffs[0] == -4.0

    def test_alpha_validation(self, tiny):
        space, _ = tiny
        pt = make_point(space, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            recover_control(pt, 0.0)


class TestConfigValidation:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            KktConfig(alpha=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            KktConfig(alpha=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            KktConfig(alpha=1.0, gamma=1.0, max_iter=0)
        for bad in (np.nan, np.inf, True):
            with pytest.raises(ValueError):
                KktConfig(alpha=bad, gamma=1.0)
            with pytest.raises(ValueError):
                KktConfig(alpha=1.0, gamma=bad)
            with pytest.raises(ValueError):
                KktConfig(alpha=1.0, gamma=1.0, tol_residual=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_data_rejected(self, tiny, bad):
        space, ops = tiny
        with pytest.raises(ValueError):
            make_data(space, ops, f=bad)
        with pytest.raises(ValueError):
            make_data(space, ops, y_d=bad)
        with pytest.raises(ValueError):
            StateProblem(ops, space.function(np.full(space.n, bad)))

    def test_point_space_mismatch(self):
        s1 = build_space(build_mesh(3))
        s2 = build_space(build_mesh(3))
        with pytest.raises(ValueError):
            KktPoint(s1.zero(), s1.zero(), s2.zero())
