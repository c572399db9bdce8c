import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, spsolve

from nsocp import fe_mesh, kkt_solver, sparse_core
from nsocp.examples import build_example, build_example1, build_example2
from nsocp.fe_mesh import PairJacobian, SineSeed, assemble_operators, build_mesh, build_space
from nsocp.kkt_solver import (
    IndexSets,
    KktConfig,
    KktPoint,
    ProblemData,
    index_sets,
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


def bmat_newton_matrix(data, pt, sets):
    """The 3n x 3n generalized Jacobian of the stacked residual, the oracle
    of the Newton step, built afresh by sp.bmat from sparse diagonals:

        [[A + D 1{y>0},  M / alpha,     0               ],
         [-M,            A + D chi,     D p             ],
         [D (1 - 1_gam), 0,             -gamma D 1_gam  ]]
    """
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    d = ops.d
    alpha, gamma = data.config.alpha, data.config.gamma
    ind_plus = np.zeros(n)
    ind_plus[sets.i_plus] = 1.0
    ind_gam = np.zeros(n)
    ind_gam[sets.i_gamma] = 1.0
    return sp.bmat([
        [a + sp.diags(d * ind_plus), (1.0 / alpha) * m, None],
        [-1.0 * m, a + sp.diags(d * pt.chi.coeffs), sp.diags(d * pt.p.coeffs, format="csr")],
        [sp.diags(d * (1.0 - ind_gam), format="csr"), None,
         -gamma * sp.diags(d * ind_gam, format="csr")],
    ], format="csr")


def bmat_active_set_fix(matrix, rhs, sets):
    """The active-set fix of the oracle: a new matrix with the critical prox
    rows replaced by unit rows on their chi unknowns, right-hand side 0."""
    if len(sets.i_crit) == 0:
        return matrix, rhs
    n = matrix.shape[0] // 3
    rows = 2 * n + sets.i_crit
    frozen = np.zeros(3 * n)
    frozen[rows] = 1.0
    fixed = (sp.diags(1.0 - frozen) @ matrix + sp.diags(frozen)).tocsr()
    rhs = rhs.copy()
    rhs[rows] = 0.0
    return fixed, rhs


def fixed_step(data, pt, sets, rhs):
    """The fixed 3n matrix and right-hand side of the Newton step at ``pt``,
    which the step must solve: the oracle with its active-set fix."""
    return bmat_active_set_fix(bmat_newton_matrix(data, pt, sets), rhs, sets)


def newton_step(data, pt, sets, r, jacobian=None):
    """``solve_kkt``'s Newton step at ``pt`` for the residual ``r``, with a
    new pair seed and the given ``PairJacobian`` (None: a new one)."""
    seed = SineSeed(data.ops.space, data.config.alpha)
    if jacobian is None:
        jacobian = PairJacobian(data.ops, data.config.alpha)
    return kkt_solver._newton_step(data, pt, sets, r, seed, jacobian)


def no_krylov_step(mp):
    """Make FGMRES decline every step it is given, so that the step falls
    through to the pair Jacobian and ``solve_linear``."""
    mp.setattr(kkt_solver, "fgmres", lambda seed, k, b: None)


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
    """The 3n Newton matrix and its active-set fix, which the tests of the
    step take as their oracle."""

    def test_hand_assembly_single_node(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 2.0, 2.0, 0.0)
        sets = index_sets(pt, data.config)
        out = bmat_newton_matrix(data, pt, sets).toarray()
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
        jac = bmat_newton_matrix(data, pt, index_sets(pt, data.config)).toarray()
        fd = np.column_stack([(residual(data, point(x + h * e)) - residual(data, point(x - h * e)))
                              / (2 * h) for e in np.eye(3 * n)])
        assert np.abs(jac - fd).max() <= 1e-10 * np.abs(jac).max()

    def test_adjoint_coupling_block_is_minus_mass(self):
        # in the pair Jacobian the step factorises, read back in block order
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        n = space.n
        jacobian = PairJacobian(ops, 1.0)
        jac = jacobian.at(0.0, 0.0)
        full = np.empty((2 * n, 2 * n))
        full[np.ix_(jacobian.order, jacobian.order)] = jac.toarray()
        assert np.array_equal(full[n:, :n], -ops.M.toarray())

    def test_critical_node_singular_without_fix(self, tiny):
        # a critical node zeroes the entire chi column: D p = 0 in the
        # adjoint row and -gamma D 1_gam = 0 in the prox row
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 0.0, 0.0, 0.5)
        sets = index_sets(pt, data.config)
        mat = bmat_newton_matrix(data, pt, sets).toarray()
        assert np.allclose(mat[:, 2], 0.0)
        scale = np.max(np.abs(mat), axis=1)
        scale[scale == 0] = 1.0
        with pytest.raises(SingularMatrixError):
            solve_linear(sp.csc_matrix(mat / scale[:, None]), np.arange(3), np.ones(3))

    def test_fix_restores_solvability_and_freezes_chi(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 0.0, 0.0, 0.5)
        sets = index_sets(pt, data.config)
        rhs = np.array([1.0, -1.0, 5.0])
        fixed, frhs = fixed_step(data, pt, sets, rhs)
        dense = fixed.toarray()
        assert np.allclose(dense[2], [0.0, 0.0, 1.0])
        assert frhs[2] == 0.0
        step = newton_step(data, pt, sets, -rhs)
        assert step[2] == 0.0  # chi component frozen
        # first two rows still solve the original 2x2 system
        assert np.allclose(dense[:2] @ step, rhs[:2])

    def test_fix_matches_row_by_row_reference(self):
        # reference: replace each critical prox row of the matrix by its unit
        # row, on the dense copy
        space = build_space(build_mesh(7))
        rng = np.random.default_rng(5)
        data = mixed_data(space, 0.5, rng)
        pt, _ = mixed_iterate(space, 0.5, rng)
        sets = index_sets(pt, data.config)
        n, crit = space.n, sets.i_crit
        assert len(crit)
        dense, rhs = row_by_row_fix(bmat_newton_matrix(data, pt, sets).toarray(),
                                    np.ones(3 * n), sets)
        fixed, frhs = fixed_step(data, pt, sets, np.ones(3 * n))
        assert np.array_equal(fixed.toarray(), dense) and np.array_equal(frhs, rhs)

    def test_fix_noop_without_critical_nodes(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 2.0, 2.0, 0.0)
        sets = index_sets(pt, data.config)
        mat = bmat_newton_matrix(data, pt, sets)
        rhs = np.ones(3)
        fixed, frhs = bmat_active_set_fix(mat, rhs, sets)
        assert fixed is mat and frhs is rhs


def mixed_iterate(space, gamma, rng, kind=None, y_scale=1.0):
    """A KKT point whose nodes fall, at random or as ``kind`` says, in
    I_gamma (0), in I_crit (1: p_i = 0 inside the prox interval) or among
    the other inactive nodes (2); y is ``y_scale`` times standard normal."""
    n = space.n
    if kind is None:
        kind = rng.integers(0, 3, n)
    y = y_scale * rng.standard_normal(n)
    inside = rng.uniform(0.02, gamma - 0.02, n)
    outside = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, -0.02, n),
                       rng.uniform(gamma + 0.02, gamma + 1.0, n))
    w = np.where(kind == 0, outside, inside)
    p = np.where(kind == 1, 0.0, rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 1.0, n))
    return make_point(space, y, p, (w - y) / gamma), kind


def mixed_data(space, gamma, rng):
    return ProblemData(ops=assemble_operators(space),
                       f=space.function(rng.standard_normal(space.n)),
                       y_d=space.function(rng.standard_normal(space.n)),
                       config=KktConfig(alpha=1e-2, gamma=gamma))


def with_nd_order(space, order):
    """``space`` with its cached nested-dissection order replaced by ``order``."""
    space.__dict__["nd_order"] = np.asarray(order)
    return space


class TestNewtonStepSolve:
    """A step with nodes of all three kinds is solved by FGMRES from the pair
    seed on the 2n pair system with the adjoint rows on N replaced, or, when
    FGMRES declines, as the n + |S| active-set system from the pair
    Jacobian, with the 3n Newton matrix only as the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_matches_dense_solve_of_fixed_matrix(self, seed, m):
        # reference path: LAPACK on the dense 3n matrix after the active-set fix
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        pt, kind = mixed_iterate(space, gamma, rng)
        sets = index_sets(pt, data.config)
        assert np.array_equal(sets.i_crit, np.flatnonzero(kind == 1))
        r = rng.standard_normal(3 * space.n)
        fixed, rhs = fixed_step(data, pt, sets, -r)
        ref = np.linalg.solve(fixed.toarray(), rhs)
        # by FGMRES, which lays nothing out, and with FGMRES declining,
        # factorised when N is not empty
        for krylov in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not krylov:
                    no_krylov_step(mp)
                jacobian = PairJacobian(data.ops, data.config.alpha)
                x = newton_step(data, pt, sets, r, jacobian)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert (jacobian.matrix is not None) == (not krylov and 2 in kind)

    def test_step_does_not_depend_on_the_order(self):
        # lexicographic numbering in place of nested dissection moves only
        # the rounding
        space = build_space(build_mesh(9))
        rng = np.random.default_rng(2)
        data = mixed_data(space, 0.5, rng)
        pt, kind = mixed_iterate(space, 0.5, rng)
        sets = index_sets(pt, data.config)
        r = rng.standard_normal(3 * space.n)
        x = newton_step(data, pt, sets, r)
        with_nd_order(space, np.arange(space.n))
        x0 = newton_step(data, pt, sets, r)
        assert np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0)

    @staticmethod
    def tiny_adjoint_case(planted):
        """A mixed step on the m = 7 mesh whose nodes number ``planted`` of
        the other inactive nodes get |p_i| ~ 1e-20 and stay outside I_crit:
        their pivots d_i p_i in adjoint rows n + i are numerically zero."""
        space = build_space(build_mesh(7))
        ops = assemble_operators(space)
        n, gamma = space.n, 0.5
        rng = np.random.default_rng(11)
        data = ProblemData(ops=ops, f=space.function(np.ones(n)),
                           y_d=space.function(np.zeros(n)),
                           config=KktConfig(alpha=1e-2, gamma=gamma))
        pt, kind = mixed_iterate(space, gamma, rng)
        nodes = np.flatnonzero(kind == 2)[list(planted)]
        pt.p.coeffs[nodes] = 1e-20
        sets = index_sets(pt, data.config)
        assert set(nodes) <= set(sets.i_crit)  # by the tolerance; the step must not rely on it
        sets = IndexSets(sets.i_plus, sets.i_gamma, np.setdiff1d(sets.i_crit, nodes))
        return data, pt, sets, nodes

    @pytest.mark.parametrize("use_order", [True, False])
    def test_tiny_adjoint_on_inactive_node_names_its_adjoint_row(self, use_order):
        # with the space's nested-dissection order, or with lexicographic
        # numbering in its place: the row named is the same
        data, pt, sets, (i,) = self.tiny_adjoint_case([3])
        n = data.ops.space.n
        if not use_order:
            with_nd_order(data.ops.space, np.arange(n))
        with pytest.raises(SingularMatrixError) as exc:
            newton_step(data, pt, sets, np.ones(3 * n))
        assert exc.value.pivot_row == n + i

    def test_two_tiny_adjoints_name_the_smaller_adjoint_row(self, counting_splu):
        # the node that comes first in the elimination order is the larger
        # one, and the step is rejected before any LU
        data, pt, sets, nodes = self.tiny_adjoint_case([2, 3])
        n = data.ops.space.n
        rank = np.argsort(data.ops.space.nd_order)
        assert rank[nodes[1]] < rank[nodes[0]] and nodes[0] < nodes[1]
        with pytest.raises(SingularMatrixError) as exc:
            newton_step(data, pt, sets, np.ones(3 * n))
        assert exc.value.pivot_row == n + nodes[0]
        assert counting_splu.calls == 0


def capture_solve_linear(mp, systems):
    """Record each matrix the step hands ``solve_linear`` in ``systems``."""
    solve = fe_mesh.solve_linear

    def recording(k, rows, b):
        systems.append((k.copy(), rows.copy()))
        return solve(k, rows, b)

    mp.setattr(fe_mesh, "solve_linear", recording)


def reduced_oracle(data, pt, sets):
    """The reduced system of the step at ``pt`` cut from the fixed 3n oracle:
    every state row and the adjoint rows on S, in the columns dy on S and
    dp, each row scaled by its largest entry in the 3n matrix, in the pair
    order of the space's nodes; with the 3n numbers of its rows."""
    n = data.ops.space.n
    fixed, _ = fixed_step(data, pt, sets, np.zeros(3 * n))
    fixed = fixed.toarray()
    scaled = fixed / np.max(np.abs(fixed), axis=1)[:, None]
    in_s = np.zeros(n, dtype=bool)
    in_s[sets.i_gamma] = in_s[sets.i_crit] = True
    nd = data.ops.space.nd_order
    rows = np.column_stack([nd, np.where(in_s[nd], n + nd, -1)]).ravel()
    cols = np.column_stack([np.where(in_s[nd], nd, -1), n + nd]).ravel()
    rows, cols = rows[rows >= 0], cols[cols >= 0]
    return scaled[np.ix_(rows, cols)], rows


class TestNewtonLayout:
    """The pair Jacobian the factorising steps of one ``solve_kkt`` share:
    laid out once, and refilled in place by each step. A step factorises
    only once FGMRES has declined it, so these tests make FGMRES decline."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_refill_matches_fresh_matrix(self, seed, m):
        # one layout refilled through iterates whose nodes move between
        # I_gamma, I_crit and the other inactive nodes, against a fresh one
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        jacobian = PairJacobian(data.ops, data.config.alpha)
        # each node steps through its kinds by +1, +1 and -1, so that every
        # move between two kinds occurs
        base = rng.permutation(np.arange(space.n) % 3)
        for shift in (0, 1, 2, 1):
            kind = (base + shift) % 3
            pt, _ = mixed_iterate(space, gamma, rng, kind)
            sets = index_sets(pt, data.config)
            assert np.array_equal(sets.i_gamma, np.flatnonzero(kind == 0))
            assert np.array_equal(sets.i_crit, np.flatnonzero(kind == 1))
            r = rng.standard_normal(3 * space.n)
            fresh = PairJacobian(data.ops, data.config.alpha)
            with pytest.MonkeyPatch.context() as mp:
                no_krylov_step(mp)
                x = newton_step(data, pt, sets, r, jacobian)
                x0 = newton_step(data, pt, sets, r, fresh)
            assert np.array_equal(x.view(np.uint64), x0.view(np.uint64))
            jac, jac0 = jacobian.matrix, fresh.matrix
            assert np.array_equal(jac.indptr, jac0.indptr)
            assert np.array_equal(jac.indices, jac0.indices)
            assert np.array_equal(jac.data.view(np.uint64), jac0.data.view(np.uint64))

    def test_pattern_stores_every_varying_diagonal(self, monkeypatch):
        # the step factorises the oracle's reduced system entry for entry, in
        # the pattern of the layout, whose diagonals it refills in place
        space = build_space(build_mesh(7))
        rng = np.random.default_rng(8)
        data = mixed_data(space, 0.5, rng)
        jacobian, systems = PairJacobian(data.ops, data.config.alpha), []
        capture_solve_linear(monkeypatch, systems)
        no_krylov_step(monkeypatch)
        n, d = space.n, data.ops.d
        a_diag, m_diag = data.ops.A.diagonal(), data.ops.M.diagonal()
        for _ in range(2):
            pt, _ = mixed_iterate(space, 0.5, rng)
            sets = index_sets(pt, data.config)
            newton_step(data, pt, sets, rng.standard_normal(3 * n), jacobian)
            full = np.empty((2 * n, 2 * n))
            full[np.ix_(jacobian.order, jacobian.order)] = jacobian.matrix.toarray()
            assert np.array_equal(np.diag(full[:n, :n]), a_diag + d * (pt.y.coeffs > 0))
            assert np.array_equal(np.diag(full[n:, n:]), a_diag + d * pt.chi.coeffs)
            assert np.array_equal(np.diag(full[n:, :n]), -m_diag)
            k, rows = systems[-1]
            ref, ref_rows = reduced_oracle(data, pt, sets)
            assert np.array_equal(rows, ref_rows)
            assert np.abs(k.toarray() - ref).max() <= 1e-15

    def test_solve_kkt_lays_out_once(self, layouts, monkeypatch):
        # example 2 at gamma = 1e-6 on this mesh runs to the iteration limit;
        # its first step, from zero, has every node critical and is refined
        # from the pair seed, and every later step has nodes outside
        # I_gamma and I_crit and, with FGMRES declining, is factorised
        data, _ = build_example(2, build_space(build_mesh(33)), 1e-4, 1e-6)
        no_krylov_step(monkeypatch)
        diags, matrices = [], []
        sp_diags = sp.diags

        def counting_diags(*args, **kwargs):
            diags.append(1)
            return sp_diags(*args, **kwargs)

        monkeypatch.setattr(sp, "diags", counting_diags)
        step = kkt_solver._newton_step

        def recording(data, pt, sets, r, seed, jacobian):
            x = step(data, pt, sets, r, seed, jacobian)
            matrices.append(jacobian.matrix)
            return x

        monkeypatch.setattr(kkt_solver, "_newton_step", recording)
        for k in (1, 2):
            _, rep = solve_kkt(data)
            assert rep.iterations == kkt_solver.MAX_ITER
            assert (len(layouts), diags) == (k, [])
        steps = rep.iterations - 1  # factorised, per solve
        assert len(matrices) == 2 * rep.iterations
        first, second = matrices[1:rep.iterations], matrices[rep.iterations + 1:]
        assert matrices[0] is matrices[rep.iterations] is None
        assert len(first) == len(second) == steps
        assert all(jac is first[0] for jac in first) and all(jac is second[0] for jac in second)
        assert first[0] is not second[0]


class TestActiveSetFixInPlace:
    def test_non_critical_rows_untouched(self):
        # the step makes no fixed matrix: it freezes chi on the critical
        # nodes and solves every other row of the 3n Newton matrix as it is
        space = build_space(build_mesh(7))
        rng = np.random.default_rng(3)
        data = mixed_data(space, 0.5, rng)
        pt, _ = mixed_iterate(space, 0.5, rng)
        sets = index_sets(pt, data.config)
        n = space.n
        assert len(sets.i_crit)
        r = rng.standard_normal(3 * n)
        r_before = r.copy()
        x = newton_step(data, pt, sets, r)
        assert np.array_equal(r, r_before)  # the caller's residual is not written
        assert np.all(x[2 * n + sets.i_crit] == 0.0)
        keep = np.ones(3 * n, dtype=bool)
        keep[2 * n + sets.i_crit] = False
        jac = bmat_newton_matrix(data, pt, sets).toarray()
        gap = (jac @ x + r)[keep]
        assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(np.abs(jac) @ np.abs(x))


def row_by_row_fix(dense, rhs, sets):
    """Reference active-set fix on a dense copy: each critical prox row
    replaced by its unit row, right-hand side 0."""
    n = len(dense) // 3
    rows = 2 * n + sets.i_crit
    dense, rhs = dense.copy(), rhs.copy()
    dense[rows] = 0.0
    dense[rows, rows] = 1.0
    rhs[rows] = 0.0
    return dense, rhs


class TestFixThroughLayout:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_matches_row_scanning_fix(self, seed, m):
        # one layout refilled through iterates whose nodes move in and out of
        # I_crit: each step solves the oracle fixed row by row
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        n = space.n
        jacobian = PairJacobian(data.ops, data.config.alpha)
        base = rng.permutation(np.arange(n) % 3)
        for shift in (0, 1, 2, 1):
            pt, _ = mixed_iterate(space, gamma, rng, (base + shift) % 3)
            sets = index_sets(pt, data.config)
            assert len(sets.i_crit)
            r = rng.standard_normal(3 * n)
            ref, rrhs = row_by_row_fix(bmat_newton_matrix(data, pt, sets).toarray(), -r, sets)
            fixed, frhs = fixed_step(data, pt, sets, -r)
            assert np.array_equal(ref, fixed.toarray())
            assert np.array_equal(rrhs, frhs)
            want = np.linalg.solve(ref, rrhs)
            x = newton_step(data, pt, sets, r, jacobian)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
            assert np.all(x[2 * n + sets.i_crit] == 0.0)


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
        assert np.linalg.norm(residual(data, pt)) < kkt_solver.TOL_RESIDUAL

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

    def test_iteration_cap_reported(self, tiny, monkeypatch):
        space, ops = tiny
        monkeypatch.setattr(kkt_solver, "MAX_ITER", 1)
        data = ProblemData(ops=ops, f=space.function(np.array([50.0])),
                           y_d=space.function(np.array([-10.0])),
                           config=KktConfig(alpha=1.0, gamma=1.0))
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


def kkt_iterates(data, monkeypatch):
    """solve_kkt's report and every iterate it evaluates the residual at."""
    seen = []

    def recording(data, pt):
        seen.append((pt.y.coeffs.copy(), pt.p.coeffs.copy(), pt.chi.coeffs.copy()))
        return residual(data, pt)

    with monkeypatch.context() as mp:
        mp.setattr(kkt_solver, "residual", recording)
        _, rep = solve_kkt(data)
    return seen, rep


class TestIterateIdentity:
    # every step of a solve against the oracle of its own iterate: [dy; dp]
    # against spsolve of the fixed 3n matrix, dchi against the prox rows on
    # S and adjoint row n + i on N
    @pytest.mark.parametrize("example, m, alpha, gamma, reason", [
        (1, 17, 1e-4, 1e-4, None),
        (2, 9, 1e-6, 1e-12, "no convergence within iteration limit"),
        (2, 65, 1e-4, 1e-6, "matrix is singular (deficient pivot in row 5179)"),
    ])
    def test_matches_matrix_built_per_step(self, example, m, alpha, gamma, reason,
                                           monkeypatch):
        data, _ = build_example(example, build_space(build_mesh(m)), alpha, gamma)
        n, d = data.ops.space.n, data.ops.d
        steps, systems = [], []
        step = kkt_solver._newton_step

        def recording(data, pt, sets, r, seed, jacobian):
            done = len(systems)
            x = step(data, pt, sets, r, seed, jacobian)
            steps.append((pt, sets, r, x, len(systems) > done))
            return x

        monkeypatch.setattr(kkt_solver, "_newton_step", recording)
        capture_solve_linear(monkeypatch, systems)
        _, rep = solve_kkt(data)
        assert rep.failure_reason == reason
        # the first step is refined from the pair seed; the m = 65 cell solves
        # the two steps before its singular one by FGMRES, so no step is
        # factorised
        assert [lu for *_, lu in steps] == [False] * len(steps)
        for pt, sets, r, x, _ in steps:
            fixed, rhs = fixed_step(data, pt, sets, -r)
            ref = spsolve(fixed.tocsc(), rhs)
            assert np.linalg.norm(x[:2 * n] - ref[:2 * n]) <= 1e-10 * np.linalg.norm(ref[:2 * n])
            dchi, g = x[2 * n:], sets.i_gamma
            assert np.array_equal(dchi[g], r[2 * n + g] / (data.config.gamma * d[g]))
            assert np.all(dchi[sets.i_crit] == 0.0)
            free = np.setdiff1d(np.arange(n), np.union1d(g, sets.i_crit))
            rows = fixed[n + free]
            gap = rows @ x - rhs[n + free]
            assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(abs(rows) @ np.abs(x))


def half_chi_point(space):
    """The warm start y = p = 0, chi = 1/2. Every node is critical there, as
    at the zero point."""
    return KktPoint(space.zero(), space.zero(), space.function(np.full(space.n, 0.5)))


def perturbed_point(pt, rng):
    """The KKT point ``pt`` with 1e-3 times standard normal noise added to
    y, p and chi."""
    space = pt.y.space
    return KktPoint(*(space.function(v.coeffs + 1e-3 * rng.standard_normal(space.n))
                      for v in (pt.y, pt.p, pt.chi)))


@pytest.fixture
def seed_refs(monkeypatch):
    """Weak references to the pair seed of each ``solve_kkt`` call."""
    refs = []

    def recording(space, alpha):
        seed = SineSeed(space, alpha)
        refs.append(weakref.ref(seed))
        return seed

    monkeypatch.setattr(kkt_solver, "SineSeed", recording)
    return refs


def no_seed_step(mp):
    """Make every Newton step factorise, as if refinement from the pair seed
    and FGMRES declined."""
    mp.setattr(kkt_solver, "refine", lambda lu, k, b: None)
    no_krylov_step(mp)


class TestFactorisationReuse:
    @pytest.mark.parametrize("build", [build_example1, build_example2])
    def test_iterates_match_fresh_lu(self, build, counting_splu, monkeypatch):
        data, _ = build(build_space(build_mesh(17)))
        reused, rep = kkt_iterates(data, monkeypatch)
        calls = counting_splu.calls
        # every step is factorised, and the pair seed goes unused
        no_seed_step(monkeypatch)
        fresh, rep_fresh = kkt_iterates(data, monkeypatch)
        # one LU per step
        assert counting_splu.calls - calls == rep_fresh.iterations
        assert calls < rep.iterations  # so some steps were solved from the seed
        assert (rep.converged, rep.iterations) == (rep_fresh.converged, rep_fresh.iterations)
        assert len(reused) == len(fresh)
        gamma = data.config.gamma
        for (y, p, chi), (y0, p0, chi0) in zip(reused, fresh):
            assert np.linalg.norm(y - y0) <= 1e-12 * np.linalg.norm(y0)
            assert np.linalg.norm(p - p0) <= 1e-12 * np.linalg.norm(p0)
            # the step sets chi on I_gamma from the rounding of y + gamma chi,
            # divided by gamma, so chi is compared on the scale |y| / gamma
            scale = np.linalg.norm(chi0) + np.linalg.norm(y0) / gamma
            assert np.linalg.norm(chi - chi0) <= 1e-12 * scale

    @pytest.mark.parametrize("start", ["cold", "half_chi", "perturbed"])
    @pytest.mark.parametrize("example, gamma", [(1, 1e-4), (2, 1e-12)])
    def test_factorises_once(self, example, gamma, start, counting_splu):
        # at each iterate of these cells every node is in I_gamma or I_crit,
        # so every step is refined from the pair seed and no LU is made
        data, _ = build_example(example, build_space(build_mesh(33)), 1e-4, gamma)
        space = data.ops.space
        init = None
        if start == "half_chi":
            init = half_chi_point(space)
        elif start == "perturbed":
            pt, rep = solve_kkt(data)
            assert rep.converged
            init = perturbed_point(pt, np.random.default_rng(example))
        made = counting_splu.calls
        _, rep = solve_kkt(data, init)
        assert rep.converged
        if (example, start) == (1, "cold"):
            assert rep.iterations == 3
        assert counting_splu.dtypes[made:] == []

    def test_singular_verdict_is_a_singleton_pivot(self, counting_splu, monkeypatch):
        # the verdict is the step's test of the pivot d_i p_i through which
        # dchi_i on a node outside I_gamma and I_crit is back-substituted,
        # made from A, M and the diagonals before any solve; it names adjoint
        # row n + i (n = 4096). The two earlier steps are solved by FGMRES, so
        # no LU is made and the pair Jacobian is never laid out
        data, _ = build_example(2, build_space(build_mesh(65)), 1e-4, 1e-6)
        jacobians = []

        def recording(ops, alpha):
            jacobians.append(PairJacobian(ops, alpha))
            return jacobians[-1]

        monkeypatch.setattr(kkt_solver, "PairJacobian", recording)
        _, rep = solve_kkt(data)
        assert rep.failure_reason == "matrix is singular (deficient pivot in row 5179)"
        assert counting_splu.dtypes == []
        assert len(jacobians) == 1 and jacobians[0].matrix is None

    def test_nothing_held_after_return(self, counting_splu, seed_refs, layouts, monkeypatch):
        # example 1 makes no LU; example 2 at gamma = 1e-6 on this mesh runs
        # to the iteration limit, and every step after its first is solved by
        # FGMRES, or, with FGMRES declining, lays out or refills the pair
        # Jacobian and factorises
        data, _ = build_example1(build_space(build_mesh(17)))
        _, rep = solve_kkt(data)
        assert rep.converged and len(seed_refs) == 1
        assert counting_splu.calls == 0 and layouts == []
        data, _ = build_example(2, build_space(build_mesh(33)), 1e-4, 1e-6)
        _, rep = solve_kkt(data)
        assert rep.iterations == kkt_solver.MAX_ITER and len(seed_refs) == 2
        assert counting_splu.calls == 0 and layouts == []
        no_krylov_step(monkeypatch)
        _, rep = solve_kkt(data)
        assert rep.iterations == kkt_solver.MAX_ITER and len(seed_refs) == 3
        assert counting_splu.calls == 24 and len(layouts) == 1
        gc.collect()
        assert all(ref() is None for ref in seed_refs)
        assert all(ref() is None for ref in counting_splu.refs)
        assert layouts[0]() is None

    def test_nothing_held_after_warm_start_returns(self, counting_splu, seed_refs):
        data, _ = build_example1(build_space(build_mesh(17)))
        _, rep = solve_kkt(data, half_chi_point(data.ops.space))
        assert rep.converged and len(seed_refs) == 1
        gc.collect()
        assert seed_refs[0]() is None
        assert all(ref() is None for ref in counting_splu.refs)

    @staticmethod
    def interrupted_solve(data, refs, monkeypatch, failing):
        """solve_kkt of ``data`` with ``index_sets`` raising on Newton step
        ``failing``: what ``refs`` (lists of weak references) name, its pair
        seed, its laid-out pair Jacobian and its LUs, must be gone while the
        traceback is still alive."""
        calls = []

        def failing_step(pt, config):
            calls.append(pt)
            if len(calls) == failing:
                raise RuntimeError("interrupted")
            return index_sets(pt, config)

        with monkeypatch.context() as mp:
            mp.setattr(kkt_solver, "index_sets", failing_step)
            with pytest.raises(RuntimeError, match="interrupted") as excinfo:
                solve_kkt(data)
        gc.collect()
        # the traceback keeps the frames of solve_kkt and of its step alive
        assert excinfo.tb is not None
        assert all(ref() is None for group in refs for ref in group)

    def test_nothing_held_after_raise(self, counting_splu, seed_refs, layouts, monkeypatch):
        # in example 1 the first step was refined from the pair seed, and no
        # LU is made; in example 2 at gamma = 1e-6 on the m = 33 mesh the
        # second step was solved by FGMRES, or, with FGMRES declining, laid
        # out the pair Jacobian and factorised
        refs = (seed_refs, layouts, counting_splu.refs)
        data, _ = build_example1(build_space(build_mesh(17)))
        self.interrupted_solve(data, refs, monkeypatch, failing=2)
        assert counting_splu.dtypes == [] and layouts == [] and len(seed_refs) == 1
        data, _ = build_example(2, build_space(build_mesh(33)), 1e-4, 1e-6)
        self.interrupted_solve(data, refs, monkeypatch, failing=3)
        assert counting_splu.calls == 0 and layouts == [] and len(seed_refs) == 2
        with monkeypatch.context() as mp:
            no_krylov_step(mp)
            self.interrupted_solve(data, refs, monkeypatch, failing=3)
        assert counting_splu.calls == 1 and len(layouts) == 1 and len(seed_refs) == 3

        # a raise inside a product of FGMRES, in the second step of the same
        # cell, whose 24 steps after the first all take it: once the
        # exception is handled and dropped, neither the seed nor a vector of
        # the basis survives
        basis, alive = [], []
        fgmres = kkt_solver.fgmres

        def failing_fgmres(seed, k, b):
            def product(z):
                basis.append(weakref.ref(z))
                if len(basis) == 5:
                    alive.append(sum(ref() is not None for ref in basis))
                    raise RuntimeError("interrupted")
                return k @ z

            return fgmres(seed, LinearOperator(k.shape, matvec=product, dtype=float), b)

        with monkeypatch.context() as mp:
            mp.setattr(kkt_solver, "fgmres", failing_fgmres)
            with pytest.raises(RuntimeError, match="interrupted"):
                solve_kkt(data)
        assert len(seed_refs) == 4 and alive == [5]
        gc.collect()
        assert seed_refs[3]() is None
        assert all(ref() is None for ref in basis)

    def test_nothing_held_after_raise_before_first_step(self, counting_splu, seed_refs,
                                                         monkeypatch):
        # the pair seed is made before the first step, and goes unused
        data, _ = build_example1(build_space(build_mesh(17)))
        self.interrupted_solve(data, (seed_refs,), monkeypatch, failing=1)
        assert counting_splu.dtypes == [] and len(seed_refs) == 1


class TestSinglePrecisionAgainstDouble:
    """The steps refined from the pair seed, or solved by FGMRES from it,
    against the float64 LU of every step, iterate by iterate, on the m = 33
    and 65 cells of both tables and the gamma = 1e-6 cells that fail.

    Every cell must reach the same decision. On the converged cells every
    iterate's y and p must agree to 1e-10 relative. A failing cell ends where
    the Newton systems turn singular or the active sets cycle, and rounding
    is amplified there (its last iterates' y moved by up to 1e-8 between a
    float32 and a float64 LU), so only its decision is compared. chi is
    reported, not judged: any change of SuperLU's rounding moves it through
    the pivot d_i p_i (run pytest with -rP to see the lines)."""

    CELLS = [
        (1, 33, 1e-4, 1e-4), (1, 65, 1e-4, 1e-4),
        (2, 33, 1e-4, 1e-12), (2, 65, 1e-4, 1e-12),
        (2, 33, 1e-4, 1e-6), (2, 65, 1e-4, 1e-6),
    ]

    @staticmethod
    def compare(data, monkeypatch, patch):
        """The iterates of solve_kkt as it is and with ``patch`` applied to
        a monkeypatch context: same decisions, and on a converged cell y
        and p within 1e-10 relative."""
        fast, rep = kkt_iterates(data, monkeypatch)
        with monkeypatch.context() as mp:
            patch(mp)
            slow, rep_slow = kkt_iterates(data, monkeypatch)
        assert (rep.converged, rep.iterations, rep.failure_reason) == (
            rep_slow.converged, rep_slow.iterations, rep_slow.failure_reason)
        assert len(fast) == len(slow) == rep.iterations + 1

        def rel(v, v0):
            return np.linalg.norm(v - v0) / max(np.linalg.norm(v0), np.finfo(float).tiny)

        moved = np.array([[rel(v, v0) for v, v0 in zip(x, x0)]
                          for x, x0 in zip(fast, slow)]).max(axis=0)
        print(f"max relative move over the iterates: y {moved[0]:.1e}, "
              f"p {moved[1]:.1e}, chi {moved[2]:.1e}")
        if rep.converged:
            assert moved[0] <= 1e-10 and moved[1] <= 1e-10
        return rep

    @pytest.mark.parametrize("example, m, alpha, gamma", CELLS)
    def test_iterates_match_without_pair_lu(self, example, m, alpha, gamma, monkeypatch):
        data, _ = build_example(example, build_space(build_mesh(m)), alpha, gamma)
        # every step is factorised, the first one included
        rep = self.compare(data, monkeypatch, no_seed_step)
        if (m, gamma) == (65, 1e-6):
            assert rep.failure_reason == "matrix is singular (deficient pivot in row 5179)"


def dense_k0(ops, alpha, mass, da=0.0, db=0.0):
    """The pair system [[A + diag(da), mass / alpha], [-mass, A + diag(db)]]
    of a KKT step that fixes every chi_i, dense, in the block order [y; p] of
    the pair seed; ``mass`` is M, or another mass matrix."""
    a = ops.A.toarray()
    return np.block([[a + np.diag(da * np.ones(len(a))), (1.0 / alpha) * mass],
                     [-mass, a + np.diag(db * np.ones(len(a)))]])


def m_tilde(ops):
    """M without its term (h^2/24) K (x) K, K = L - L^T, dense: the mass
    matrix that is diagonal in the sine basis."""
    k = ops.space.mesh.m - 1
    skew = np.eye(k, k=-1) - np.eye(k, k=1)
    return ops.M.toarray() - (ops.space.mesh.h ** 2 / 24) * np.kron(skew, skew)


class TestPairSeed:
    """The seed of a KKT step that fixes every chi_i: K0 = [[A, M / alpha],
    [-M, A]] solved, up to one small term, by the sine transform of the
    grid, in the block order [y; p]."""

    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from([5, 9, 17]), log_alpha=st.floats(-6.0, -2.0),
           seed=st.integers(0, 2**16))
    def test_refines_to_k0(self, m, log_alpha, seed):
        # coarse meshes at small alpha are the corner where refinement may
        # decline (see test_declined_seed_gives_way_to_a_fresh_lu): for these
        # right-hand sides, m = 5 below alpha = 10^-4.3 and m = 9 below
        # 10^-5.1 declined 0.2-4 % of solves, and m = 17 none of 600
        assume(log_alpha >= {5: -4.0, 9: -5.0}.get(m, -6.0))
        alpha = 10.0 ** log_alpha
        ops = assemble_operators(build_space(build_mesh(m)))
        pair = SineSeed(ops.space, alpha)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(2 * ops.space.n)
        # with M~ in place of M, the seed is an exact solve up to float32
        # rounding: C~ = A - i M~ / sqrt(alpha) amplifies it by at most its
        # condition number (0.03-1.1 eps32 cond(C~) measured over this range)
        k = dense_k0(ops, alpha, m_tilde(ops))
        assert pair.shape == k.shape
        ref = np.linalg.solve(k, b)
        c_tilde = ops.A.toarray() - (1j / np.sqrt(alpha)) * m_tilde(ops)
        bound = 8 * np.finfo(np.float32).eps * np.linalg.cond(c_tilde)
        assert np.max(np.abs(pair.solve(b) - ref)) <= bound * np.max(np.abs(ref))
        # refinement from it solves K0, and K0 with the diagonals D 1{y>0}
        # and D chi of a later step, for y of either sign and chi in [0, 1]
        d_plus = ops.d * (rng.standard_normal(ops.space.n) > 0)
        d_chi = ops.d * rng.uniform(0.0, 1.0, ops.space.n)
        for k in (dense_k0(ops, alpha, ops.M.toarray()),
                  dense_k0(ops, alpha, ops.M.toarray(), d_plus, d_chi)):
            ref = np.linalg.solve(k, b)
            x = sparse_core.refine(pair, k, b)
            assert x is not None
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_declined_seed_gives_way_to_a_fresh_lu(self, counting_splu, monkeypatch):
        # at h = 1/5 and alpha = 1e-6 the term left to refinement, M - M~,
        # weighs most against C~: the corrections from the seed shrink by
        # about 0.2 a step, but unevenly, and for this first step one fails
        # to halve above SETTLE_RTOL, so refinement declines and the step
        # is solved by FGMRES from the same seed, with no LU, or, with
        # FGMRES declining, factorised by the float64 LU
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        rng = np.random.default_rng(4)
        data = ProblemData(ops=ops, f=space.function(rng.standard_normal(space.n)),
                           y_d=space.function(rng.standard_normal(space.n)),
                           config=KktConfig(alpha=1e-6, gamma=1e-12))
        zero = zero_point(ops)
        fixed, rhs = fixed_step(data, zero, index_sets(zero, data.config), -residual(data, zero))
        ref = np.linalg.solve(fixed.toarray(), rhs)
        refine = kkt_solver.refine
        monkeypatch.setattr(kkt_solver, "MAX_ITER", 1)
        for krylov in (True, False):
            seen = []

            def recording(*args):
                seen.append(refine(*args))
                return seen[-1]

            with monkeypatch.context() as mp:
                mp.setattr(kkt_solver, "refine", recording)
                if not krylov:
                    no_krylov_step(mp)
                pt, rep = solve_kkt(data)
            assert rep.iterations == 1 and len(seen) == 1 and seen[0] is None
            assert counting_splu.dtypes == ([] if krylov else [np.float64])
            x = np.concatenate([pt.y.coeffs, pt.p.coeffs, pt.chi.coeffs])
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_refine_reads_float32(self):
        space = build_space(build_mesh(9))
        for seed in (SineSeed(space), SineSeed(space, 1e-4)):
            # refine reads the precision of a seed from its dtype, and casts
            # each residual to it
            assert seed.dtype == np.float32
            for dtype in (np.float32, np.float64):
                assert seed.solve(np.ones(seed.shape[0], dtype)).dtype == np.float32

    # the space's spectrum, computed here on first use (the sine matrix and
    # two eigenvalue grids, (m - 1)^2 = n floats each), and the seed's
    # float32 copies of the sine matrix and of lam_a and its n complex64
    # inverse eigenvalues, n floats' worth together: 5n floats
    @pytest.mark.parametrize("m", [33, 65])
    def test_holds_o_n_floats_and_no_factor(self, m):
        space = build_space(build_mesh(m))
        b = np.ones(2 * space.n)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            pair = SineSeed(space, 1e-4)
            pair.solve(b)
            held = tracemalloc.get_traced_memory()[0] - entry
        finally:
            tracemalloc.stop()
        assert held <= 6 * 8 * space.n
        assert all(isinstance(v, (np.ndarray, float, tuple)) for v in vars(pair).values())


class TestSeedStep:
    """A Newton step whose I_gamma and I_crit cover every node is refined from
    the pair seed with products from A, M and its diagonals, with the 3n
    Newton matrix only as the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([3, 5, 9, 17]))
    def test_matches_dense_solve_of_fixed_matrix(self, seed, m):
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        # every node in I_gamma or I_crit, and chi = (w - y) / gamma of
        # order one, as in the steps the pair seed serves
        pt, kind = mixed_iterate(space, gamma, rng, rng.integers(0, 2, space.n), y_scale=0.2)
        sets = index_sets(pt, data.config)
        assert np.array_equal(sets.i_gamma, np.flatnonzero(kind == 0))
        assert np.array_equal(sets.i_crit, np.flatnonzero(kind == 1))
        r = rng.standard_normal(3 * space.n)
        jacobian = PairJacobian(data.ops, data.config.alpha)
        dx = newton_step(data, pt, sets, r, jacobian)
        assert jacobian.matrix is None  # refined, not factorised
        fixed, rhs = fixed_step(data, pt, sets, -r)
        ref = np.linalg.solve(fixed.toarray(), rhs)
        assert np.linalg.norm(dx - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_declined_step_is_factorised_to_the_same_step(self, monkeypatch):
        # with no correction allowed, refinement from the seed declines, and
        # FGMRES solves the step with nothing laid out; with FGMRES declining
        # too, the step takes the float64 LU
        space = build_space(build_mesh(9))
        rng = np.random.default_rng(6)
        data = mixed_data(space, 0.5, rng)
        pt, _ = mixed_iterate(space, 0.5, rng, rng.integers(0, 2, space.n), y_scale=0.2)
        sets = index_sets(pt, data.config)
        r = rng.standard_normal(3 * space.n)
        refined = newton_step(data, pt, sets, r)
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)
        jacobian = PairJacobian(data.ops, data.config.alpha)
        krylov = newton_step(data, pt, sets, r, jacobian)
        assert jacobian.matrix is None
        assert np.linalg.norm(krylov - refined) <= 1e-10 * np.linalg.norm(refined)
        no_krylov_step(monkeypatch)
        factorised = newton_step(data, pt, sets, r, jacobian)
        assert jacobian.matrix is not None
        assert np.linalg.norm(factorised - refined) <= 1e-10 * np.linalg.norm(refined)

    def test_converged_solve_makes_no_3n_matrix(self, layouts, monkeypatch):
        # nor any other matrix: no step is factorised, and the nested-
        # dissection order, which only a layout needs, is never computed
        space = build_space(build_mesh(33))
        data, _ = build_example1(space)
        calls = []
        solve = fe_mesh.solve_linear

        def recording(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(fe_mesh, "solve_linear", recording)
        _, rep = solve_kkt(data)
        assert rep.converged and rep.iterations == 3
        assert calls == [] and layouts == []
        assert "nd_order" not in vars(space)

    @pytest.mark.parametrize("example, m, gamma", [(1, 17, 1e-4), (2, 33, 1e-12)])
    def test_declined_refinement_falls_through_to_3n_path(self, example, m, gamma,
                                                          monkeypatch):
        # with no correction allowed and FGMRES declining, refinement from the
        # seed declines on every step: every step is factorised in float64
        data, _ = build_example(example, build_space(build_mesh(m)), 1e-4, gamma)
        direct, rep = kkt_iterates(data, monkeypatch)
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)
        no_krylov_step(monkeypatch)
        calls = []
        solve = fe_mesh.solve_linear

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(fe_mesh, "solve_linear", counting)
        fallen, rep_fallen = kkt_iterates(data, monkeypatch)
        assert rep.converged and (rep.iterations, rep.failure_reason) == (
            rep_fallen.iterations, rep_fallen.failure_reason)
        assert len(calls) == rep.iterations  # every step factorised
        assert len(direct) == len(fallen) == rep.iterations + 1
        for (y, p, chi), (y0, p0, chi0) in zip(direct, fallen):
            assert np.linalg.norm(y - y0) <= 1e-10 * np.linalg.norm(y0)
            assert np.linalg.norm(p - p0) <= 1e-10 * np.linalg.norm(p0)
            # chi is set on I_gamma from the rounding of y + gamma chi, divided
            # by gamma, so it is compared on the scale |y| / gamma
            scale = np.linalg.norm(chi0) + np.linalg.norm(y0) / gamma
            assert np.linalg.norm(chi - chi0) <= 1e-10 * scale


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_alpha_rejected(self, tiny, bad):
        space, _ = tiny
        pt = make_point(space, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            recover_control(pt, bad)


class TestConfigValidation:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            KktConfig(alpha=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            KktConfig(alpha=1.0, gamma=-1.0)
        for bad in (np.nan, np.inf, True):
            with pytest.raises(ValueError):
                KktConfig(alpha=bad, gamma=1.0)
            with pytest.raises(ValueError):
                KktConfig(alpha=1.0, gamma=bad)

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
