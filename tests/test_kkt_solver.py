import gc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nsocp import kkt_solver, sparse_core
from nsocp.examples import build_example, build_example1, build_example2
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
from nsocp.sparse_core import SingularMatrixError, SparseError, solve_linear
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


def fixed_step(data, pt, sets, rhs):
    """The matrix and rhs of one Newton step as ``solve_kkt`` forms them: a
    new layout refilled by ``newton_matrix`` and fixed through its
    positions by ``apply_active_set_fix``."""
    layout = kkt_solver._newton_layout(data)
    newton_matrix(data, pt, sets, _layout=layout)
    return apply_active_set_fix(layout, rhs, sets)


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
        rhs = np.array([1.0, -1.0, 5.0])
        fixed, frhs = fixed_step(data, pt, sets, rhs)
        dense = fixed.toarray()
        assert np.allclose(dense[2], [0.0, 0.0, 1.0])
        assert frhs[2] == 0.0
        step = solve_linear(fixed, frhs)
        assert step[2] == 0.0  # chi component frozen
        # first two rows still solve the original 2x2 system
        assert np.allclose(dense[:2] @ step, rhs[:2])

    def test_fix_matches_row_by_row_reference(self):
        # reference: replace each critical prox row of the refilled matrix by
        # its unit row, on the dense copy
        space = build_space(build_mesh(7))
        rng = np.random.default_rng(5)
        data = mixed_data(space, 0.5, rng)
        pt, _ = mixed_iterate(space, 0.5, rng)
        sets = index_sets(pt, data.config)
        n, crit = space.n, sets.i_crit
        assert len(crit)
        layout = kkt_solver._newton_layout(data)
        dense = newton_matrix(data, pt, sets, _layout=layout).toarray()
        fixed, _ = apply_active_set_fix(layout, np.ones(3 * n), sets)
        dense[2 * n + crit] = 0.0
        dense[2 * n + crit, 2 * n + crit] = 1.0
        assert np.array_equal(fixed.toarray(), dense)

    def test_fix_noop_without_critical_nodes(self, tiny):
        space, ops = tiny
        data = make_data(space, ops, alpha=1.0, gamma=1.0)
        pt = make_point(space, 2.0, 2.0, 0.0)
        sets = index_sets(pt, data.config)
        layout = kkt_solver._newton_layout(data)
        mat = newton_matrix(data, pt, sets, _layout=layout)
        before = mat.copy()
        rhs = np.ones(3)
        fixed, frhs = apply_active_set_fix(layout, rhs, sets)
        assert fixed is mat and frhs is rhs
        assert_same_bits(fixed, before)


def node_order(space):
    """(y_i, p_i, chi_i) triples in the space's nested-dissection node order,
    the numbering ``solve_kkt`` hands to ``solve_linear``."""
    nd, n = space.nd_order, space.n
    return np.stack([nd, n + nd, 2 * n + nd], axis=1).ravel()


def mixed_iterate(space, gamma, rng, kind=None):
    """A KKT point whose nodes fall, at random or as ``kind`` says, in
    I_gamma (0), in I_crit (1: p_i = 0 inside the prox interval) or among
    the other inactive nodes (2)."""
    n = space.n
    if kind is None:
        kind = rng.integers(0, 3, n)
    y = rng.standard_normal(n)
    inside = rng.uniform(0.02, gamma - 0.02, n)
    outside = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, -0.02, n),
                       rng.uniform(gamma + 0.02, gamma + 1.0, n))
    w = np.where(kind == 0, outside, inside)
    p = np.where(kind == 1, 0.0, rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 1.0, n))
    return make_point(space, y, p, (w - y) / gamma), kind


class TestNewtonStepSolve:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_matches_dense_solve_of_fixed_matrix(self, seed, m):
        # reference path: LAPACK on the dense 3n matrix after the active-set fix
        space = build_space(build_mesh(m))
        ops = assemble_operators(space)
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = ProblemData(ops=ops, f=space.function(rng.standard_normal(space.n)),
                           y_d=space.function(rng.standard_normal(space.n)),
                           config=KktConfig(alpha=1e-2, gamma=gamma))
        pt, _ = mixed_iterate(space, gamma, rng)
        sets = index_sets(pt, data.config)
        fixed, rhs = fixed_step(data, pt, sets, rng.standard_normal(3 * space.n))
        ref = np.linalg.solve(fixed.toarray(), rhs)
        for x in (solve_linear(fixed, rhs, node_order(space)), solve_linear(fixed, rhs)):
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("use_order", [True, False])
    def test_tiny_adjoint_on_inactive_node_names_its_adjoint_row(self, use_order):
        # an inactive node left out of I_crit with |p_i| ~ 1e-20: its chi_i
        # pivot d_i p_i in adjoint row n + i is numerically zero
        space = build_space(build_mesh(7))
        ops = assemble_operators(space)
        n, gamma = space.n, 0.5
        rng = np.random.default_rng(11)
        data = ProblemData(ops=ops, f=space.function(np.ones(n)),
                           y_d=space.function(np.zeros(n)),
                           config=KktConfig(alpha=1e-2, gamma=gamma))
        pt, kind = mixed_iterate(space, gamma, rng)
        i = int(np.flatnonzero(kind == 2)[3])
        pt.p.coeffs[i] = 1e-20
        sets = index_sets(pt, data.config)
        assert i in sets.i_crit  # by the tolerance; the solve must not rely on it
        sets = IndexSets(sets.i_plus, sets.i_gamma, sets.i_crit[sets.i_crit != i])
        fixed, rhs = fixed_step(data, pt, sets, np.ones(3 * n))
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(fixed, rhs, node_order(space) if use_order else None)
        assert exc.value.pivot_row == n + i


def bmat_newton_matrix(data, pt, sets):
    """Reference Newton matrix, built afresh by sp.bmat from sparse diagonals,
    which store no zero entry."""
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
    """Reference active-set fix: a new matrix with the critical prox rows
    replaced by unit rows."""
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


def nonzero_csr(matrix):
    """A canonical copy of ``matrix`` without its explicit zeros, as
    ``solve_linear``'s working copy holds it."""
    out = sp.csr_matrix(matrix, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def assert_same_bits(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def mixed_data(space, gamma, rng):
    return ProblemData(ops=assemble_operators(space),
                       f=space.function(rng.standard_normal(space.n)),
                       y_d=space.function(rng.standard_normal(space.n)),
                       config=KktConfig(alpha=1e-2, gamma=gamma))


class TestNewtonLayout:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_refill_matches_fresh_matrix(self, seed, m):
        # one layout refilled through iterates whose nodes move between
        # I_gamma, I_crit and the other inactive nodes
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        layout = kkt_solver._newton_layout(data)
        # each node steps through its kinds by +1, +1 and -1, so that every
        # move between two kinds occurs
        base = rng.permutation(np.arange(space.n) % 3)
        kinds = [(base + shift) % 3 for shift in (0, 1, 2, 1)]
        for kind in kinds:
            pt, _ = mixed_iterate(space, gamma, rng, kind)
            sets = index_sets(pt, data.config)
            assert np.array_equal(sets.i_gamma, np.flatnonzero(kind == 0))
            assert np.array_equal(sets.i_crit, np.flatnonzero(kind == 1))
            rhs = rng.standard_normal(3 * space.n)
            jac = newton_matrix(data, pt, sets, _layout=layout)
            assert jac is layout[0]
            jac, jrhs = apply_active_set_fix(layout, rhs, sets)
            fresh, frhs = fixed_step(data, pt, sets, rhs)
            ref, rrhs = bmat_active_set_fix(bmat_newton_matrix(data, pt, sets), rhs, sets)
            refilled = nonzero_csr(jac)
            assert_same_bits(refilled, nonzero_csr(fresh))
            assert_same_bits(refilled, nonzero_csr(ref))
            assert np.array_equal(jrhs, rrhs) and np.array_equal(frhs, rrhs)

    @pytest.mark.parametrize("m", [5, 9])
    def test_refill_positions_index_the_five_diagonals(self, m):
        # yy, pp, pc, cy and cc index the (i, i), (n + i, n + i),
        # (n + i, 2n + i), (2n + i, i) and (2n + i, 2n + i) entries, each
        # stored once, node by node
        space = build_space(build_mesh(m))
        ops = assemble_operators(space)
        n = space.n
        jac, *positions, a_diag = kkt_solver._newton_layout(make_data(space, ops, gamma=0.5))
        rows = np.repeat(np.arange(3 * n), np.diff(jac.indptr))
        i = np.arange(n)
        blocks = ((0, 0), (n, n), (n, 2 * n), (2 * n, 0), (2 * n, 2 * n))
        assert len(positions) == len(blocks)
        for pos, (r0, c0) in zip(positions, blocks):
            assert np.array_equal(rows[pos], r0 + i)
            assert np.array_equal(jac.indices[pos], c0 + i)
            assert np.sum((rows == (r0 + i)[:, None]) & (jac.indices == (c0 + i)[:, None])) == n
        assert np.array_equal(a_diag, ops.A.diagonal())

    def test_pattern_stores_every_varying_diagonal(self):
        # at the zero point every varying diagonal but A + D chi is zero
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        data = make_data(space, ops, gamma=0.5)
        n = space.n
        pt = zero_point(ops)
        jac = newton_matrix(data, pt, index_sets(pt, data.config))
        stored = sp.csr_matrix((np.ones_like(jac.data), jac.indices, jac.indptr),
                               shape=jac.shape).toarray()
        for r0, c0 in ((0, 0), (n, n), (n, 2 * n), (2 * n, 0), (2 * n, 2 * n)):
            assert np.all(np.diagonal(stored[r0:r0 + n, c0:c0 + n]) == 1.0)
        assert np.count_nonzero(stored[2 * n:]) == 2 * n  # nothing else in the prox rows

    def test_solve_kkt_lays_out_once(self, monkeypatch):
        # example 2 on this mesh runs to the iteration limit; its first step,
        # from zero, has every node critical
        data, _ = build_example2(build_space(build_mesh(17)))
        calls = {"assemble_block": 0, "bmat": 0, "diags": 0}
        matrices = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(kkt_solver, "assemble_block",
                            counting("assemble_block", kkt_solver.assemble_block))
        monkeypatch.setattr(sp, "bmat", counting("bmat", sp.bmat))
        monkeypatch.setattr(sp, "diags", counting("diags", sp.diags))
        build = kkt_solver.newton_matrix

        def recording(*args, **kwargs):
            matrices.append(build(*args, **kwargs))
            return matrices[-1]

        monkeypatch.setattr(kkt_solver, "newton_matrix", recording)
        for k in (1, 2):
            _, rep = solve_kkt(data)
            assert rep.iterations == kkt_solver.MAX_ITER
            assert calls == {"assemble_block": k, "bmat": k, "diags": 0}
        steps = rep.iterations
        assert len(matrices) == 2 * steps
        assert all(mat is matrices[-1] for mat in matrices[steps:])
        assert matrices[0] is not matrices[-1]


class TestActiveSetFixInPlace:
    def mixed_case(self, seed=3):
        space = build_space(build_mesh(7))
        rng = np.random.default_rng(seed)
        data = mixed_data(space, 0.5, rng)
        pt, _ = mixed_iterate(space, 0.5, rng)
        sets = index_sets(pt, data.config)
        assert len(sets.i_crit)
        return space, data, pt, sets, rng.standard_normal(3 * space.n)

    def test_non_critical_rows_untouched(self):
        space, data, pt, sets, rhs = self.mixed_case()
        n = space.n
        layout = kkt_solver._newton_layout(data)
        mat = newton_matrix(data, pt, sets, _layout=layout)
        before = mat.copy()
        rhs_before = rhs.copy()
        fixed, frhs = apply_active_set_fix(layout, rhs, sets)
        assert fixed is mat
        assert np.array_equal(rhs, rhs_before)  # the caller's rhs is not written
        assert np.array_equal(fixed.indptr, before.indptr)
        assert np.array_equal(fixed.indices, before.indices)
        crit_rows = 2 * n + sets.i_crit
        changed = np.zeros(3 * n, dtype=bool)
        changed[crit_rows] = True
        in_crit_row = np.repeat(changed, np.diff(before.indptr))
        assert np.array_equal(fixed.data[~in_crit_row].view(np.uint64),
                              before.data[~in_crit_row].view(np.uint64))
        assert np.array_equal(frhs[~changed], rhs[~changed])
        dense = fixed.toarray()
        assert np.array_equal(dense[crit_rows], np.eye(3 * n)[crit_rows])
        assert np.all(frhs[crit_rows] == 0.0)

    def laid_out_as(self, monkeypatch, data, mat):
        """``_newton_layout(data)`` with ``assemble_block`` returning ``mat``."""
        monkeypatch.setattr(kkt_solver, "assemble_block", lambda blocks: mat)
        return kkt_solver._newton_layout(data)

    def test_missing_prox_diagonal_raises(self, monkeypatch):
        # sp.bmat of sparse diagonals stores no -gamma D 1_gamma entry on an
        # inactive node, so a layout of it has no position to write the unit
        # entry of a critical node into: that is found at layout time
        space, data, pt, sets, rhs = self.mixed_case()
        mat = bmat_newton_matrix(data, pt, sets)
        before = mat.copy()
        with pytest.raises(SparseError, match="stored exactly once"):
            self.laid_out_as(monkeypatch, data, mat)
        assert_same_bits(mat, before)  # nothing written before the check

    def test_duplicate_prox_diagonal_raises(self, monkeypatch):
        space, data, pt, sets, rhs = self.mixed_case()
        n = space.n
        mat = newton_matrix(data, pt, sets)
        # a second stored (r, r) entry in the first critical prox row r
        r = 2 * n + int(sets.i_crit[0])
        k = mat.indptr[r]
        indptr = mat.indptr.copy()
        indptr[r + 1:] += 1
        dup = sp.csr_matrix((np.insert(mat.data, k, 1.0), np.insert(mat.indices, k, r), indptr),
                            shape=mat.shape)
        with pytest.raises(SparseError, match="stored exactly once"):
            self.laid_out_as(monkeypatch, data, dup)


def row_scanning_fix(matrix, rhs, sets):
    """Reference active-set fix, as it was before the layout held positions:
    scan each critical prox row for its stored entries and its diagonal,
    write the entries 0 and the diagonal 1, in place."""
    if len(sets.i_crit) == 0:
        return matrix, rhs
    n = matrix.shape[0] // 3
    rows = 2 * n + sets.i_crit
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    pos = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    row_of = np.repeat(rows, counts)
    diag = pos[matrix.indices[pos] == row_of]
    assert np.array_equal(matrix.indices[diag], rows)
    matrix.data[pos] = 0.0
    matrix.data[diag] = 1.0
    rhs = rhs.copy()
    rhs[rows] = 0.0
    return matrix, rhs


class TestFixThroughLayout:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 7, 9]))
    def test_matches_row_scanning_fix(self, seed, m):
        # one layout refilled and fixed through iterates whose nodes move in
        # and out of I_crit, against a fresh matrix fixed by scanning its rows
        space = build_space(build_mesh(m))
        rng = np.random.default_rng(seed)
        gamma = 0.5
        data = mixed_data(space, gamma, rng)
        n = space.n
        layout = kkt_solver._newton_layout(data)
        base = rng.permutation(np.arange(n) % 3)
        for shift in (0, 1, 2, 1):
            pt, _ = mixed_iterate(space, gamma, rng, (base + shift) % 3)
            sets = index_sets(pt, data.config)
            assert len(sets.i_crit)
            rhs = rng.standard_normal(3 * n)
            rhs_before = rhs.copy()
            before = newton_matrix(data, pt, sets, _layout=layout).copy()
            jac, jrhs = apply_active_set_fix(layout, rhs, sets)
            ref, rrhs = row_scanning_fix(newton_matrix(data, pt, sets), rhs, sets)
            assert_same_bits(nonzero_csr(jac), nonzero_csr(ref))
            assert np.array_equal(jrhs.view(np.uint64), rrhs.view(np.uint64))
            assert np.array_equal(rhs.view(np.uint64), rhs_before.view(np.uint64))
            # rows of nodes that are not critical keep every stored entry
            keep = np.ones(3 * n, dtype=bool)
            keep[2 * n + sets.i_crit] = False
            in_kept_row = np.repeat(keep, np.diff(before.indptr))
            assert np.array_equal(jac.data[in_kept_row].view(np.uint64),
                                  before.data[in_kept_row].view(np.uint64))
            assert np.array_equal(jrhs[keep], rhs[keep])


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
    # the oracle lays out and fixes a new matrix at every step, with sp.bmat
    # and a copying fix; refilling one layout in place must not move a bit
    @pytest.mark.parametrize("example, m, alpha, gamma, reason", [
        (1, 17, 1e-4, 1e-4, None),
        (2, 9, 1e-6, 1e-12, "no convergence within iteration limit"),
        (2, 65, 1e-4, 1e-6, "matrix is singular (deficient pivot in row 5179)"),
    ])
    def test_matches_matrix_built_per_step(self, example, m, alpha, gamma, reason,
                                           monkeypatch):
        data, _ = build_example(example, build_space(build_mesh(m)), alpha, gamma)
        refilled, rep = kkt_iterates(data, monkeypatch)
        matrices = []

        def built_per_step(data, pt, sets, _layout=None):
            matrices.append(bmat_newton_matrix(data, pt, sets))
            return matrices[-1]

        with monkeypatch.context() as mp:
            mp.setattr(kkt_solver, "newton_matrix", built_per_step)
            mp.setattr(kkt_solver, "apply_active_set_fix",
                       lambda layout, rhs, sets: bmat_active_set_fix(matrices[-1], rhs, sets))
            built, rep_built = kkt_iterates(data, monkeypatch)
        assert rep.failure_reason == rep_built.failure_reason == reason
        assert rep == rep_built  # converged, iterations and residual history too
        assert len(refilled) == len(built) == rep.iterations + 1
        for x, x0 in zip(refilled, built):
            for v, v0 in zip(x, x0):
                assert np.array_equal(v.view(np.uint64), v0.view(np.uint64))


class TestFactorisationReuse:
    @pytest.mark.parametrize("build", [build_example1, build_example2])
    def test_iterates_match_fresh_lu(self, build, counting_splu, monkeypatch):
        data, _ = build(build_space(build_mesh(17)))
        reused, rep = kkt_iterates(data, monkeypatch)
        calls = counting_splu.calls
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)
        fresh, rep_fresh = kkt_iterates(data, monkeypatch)
        assert counting_splu.calls - calls == rep_fresh.iterations  # one LU per step
        assert calls < rep.iterations  # so some steps were solved by refinement
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

    def test_example1_factorises_once(self, counting_splu):
        data, _ = build_example1(build_space(build_mesh(33)))
        _, rep = solve_kkt(data)
        assert rep.converged and rep.iterations == 3
        assert counting_splu.calls == 1

    def test_nothing_held_after_return(self, counting_splu):
        data, _ = build_example1(build_space(build_mesh(17)))
        _, rep = solve_kkt(data)
        assert rep.converged and counting_splu.calls >= 1
        gc.collect()
        assert all(ref() is None for ref in counting_splu.refs)

    def test_nothing_held_after_raise(self, counting_splu, monkeypatch):
        data, _ = build_example1(build_space(build_mesh(17)))
        calls = []

        def failing_second_step(pt, config):
            calls.append(pt)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return index_sets(pt, config)

        monkeypatch.setattr(kkt_solver, "index_sets", failing_second_step)
        with pytest.raises(RuntimeError, match="interrupted") as excinfo:
            solve_kkt(data)
        assert counting_splu.calls == 1
        gc.collect()
        # the traceback keeps the frames of solve_kkt and of its step alive
        assert excinfo.tb is not None
        assert counting_splu.refs[0]() is None


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
