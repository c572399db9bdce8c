import tracemalloc

import numpy as np
import pytest

import scipy.sparse as sp

from nsocp import kkt_solver, regpath, sparse_core, state_solver
from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import SineSeed, assemble_operators, build_mesh, build_space
from nsocp.nonsmooth import SmoothedMaxParams, smoothed_max_prime, smoothed_max_second
from nsocp.sparse_core import (
    CsrMatrix,
    SingularMatrixError,
    fgmres,
    refine,
    solve_linear,
)


def dense_gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent oracle: dense Gaussian elimination with partial pivoting."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            fac = a[i, k] / a[k, k]
            a[i, k:] -= fac * a[k, k:]
            b[i] -= fac * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def reduced(dense, rows, cols) -> sp.csc_matrix:
    """The block of ``dense`` in ``rows`` and ``cols``, each row scaled by the
    largest entry of its whole row, as ``kkt_solver`` hands its reduced
    system to ``solve_linear`` (an empty row stays empty)."""
    dense = np.asarray(dense, dtype=float)
    scale = np.max(np.abs(dense), axis=1)
    scale[scale == 0] = 1.0
    return sp.csc_matrix((dense * (1.0 / scale)[:, None])[np.ix_(rows, cols)])


def solve(dense, b, order=None):
    """x with dense x = b, from ``solve_linear`` of the row-equilibrated
    system with its rows and columns numbered as in ``order`` (None keeps
    them); a deficient row is named in the numbering of ``dense``."""
    dense = np.asarray(dense, dtype=float)
    order = np.arange(len(b)) if order is None else np.asarray(order)
    scale = np.max(np.abs(dense), axis=1)
    scale[scale == 0] = 1.0
    x = np.empty(len(b))
    x[order] = solve_linear(reduced(dense, order, order), order, (b / scale)[order])
    return x


class TestFromScipy:
    def test_duplicates_summed(self):
        coo = sp.coo_matrix(([2.0, 3.0], ([0, 0], [0, 0])), shape=(1, 1))
        m = CsrMatrix.from_scipy(coo)
        assert len(m.data) == 1
        assert m.data[0] == 5.0

    def test_unsorted_duplicates_made_canonical(self):
        # row 0 stores columns 2, 0, 2; row 1 stores columns 1, 0
        raw = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                             np.array([2, 0, 2, 1, 0]), np.array([0, 3, 5])),
                            shape=(2, 3))
        m = CsrMatrix.from_scipy(raw)
        assert isinstance(m, sp.csr_matrix)
        assert m.has_canonical_format
        assert m.indices.tolist() == [0, 2, 0, 1]
        assert m.data.tolist() == [2.0, 4.0, 5.0, 4.0]
        assert raw.indices.tolist() == [2, 0, 2, 1, 0]  # input left as it was

    def test_assembled_operators_canonical(self):
        from nsocp.fe_mesh import assemble_operators, build_mesh, build_space
        ops = assemble_operators(build_space(build_mesh(6)))
        for mat in (ops.A, ops.M):
            assert isinstance(mat, sp.csr_matrix)
            assert mat.has_canonical_format


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.5, 1e-30])
        x = solve(np.eye(4), b)
        assert np.max(np.abs(x - b)) <= 1e-14 * np.max(np.abs(b))

    def test_small_system(self):
        x = solve([[4.0, -1.0], [-1.0, 4.0]], np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-13)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(1234)
        n = 50
        dense = np.zeros((n, n))
        for _ in range(4 * n):
            i, j = rng.integers(0, n, 2)
            dense[i, j] += rng.standard_normal()
        dense = dense @ dense.T + n * np.eye(n)  # SPD
        b = rng.standard_normal(n)
        x = solve(dense, b)
        x_oracle = dense_gauss_solve(dense, b)
        assert np.linalg.norm(x - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 20
            dense = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = solve(dense, b)
            res = np.linalg.norm(dense @ x - b) / np.linalg.norm(b)
            assert res <= 1e-10

    def test_symmetric_solution_identity(self):
        rng = np.random.default_rng(42)
        n = 15
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T + 3 * n * np.eye(n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sx = solve(dense, x)
        sy = solve(dense, y)
        # A^{-1} of a symmetric matrix is symmetric
        assert abs(x @ sy - y @ sx) <= 1e-12 * max(1.0, abs(x @ sy))

    def test_singular_names_pivot_row(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve([[1.0, 1.0], [1.0, 1.0]], np.ones(2))
        assert exc.value.pivot_row in (0, 1)

    def test_singular_row_lies_in_dependent_rows(self):
        # row k = row i + row j up to 1e-17 noise: LU ends on a tiny pivot,
        # and the row it names must be one of the three dependent rows
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, j, k = rng.choice(8, 3, replace=False)
            dense[k] = dense[i] + dense[j] + 1e-17 * rng.standard_normal(8)
            with pytest.raises(SingularMatrixError) as exc:
                solve(dense, np.ones(8))
            assert exc.value.pivot_row in (i, j, k), seed

    def test_singular_row_independent_of_order(self):
        # the probe's growth points along the left null vector, which does
        # not depend on the elimination order, so every order names one row
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, j, k = rng.choice(8, 3, replace=False)
            dense[k] = dense[i] + dense[j] + 1e-17 * rng.standard_normal(8)
            named = set()
            for order in (None, rng.permutation(8), rng.permutation(8), rng.permutation(8)):
                with pytest.raises(SingularMatrixError) as exc:
                    solve(dense, np.ones(8), order)
                named.add(exc.value.pivot_row)
            assert len(named) == 1 and named <= {i, j, k}, seed

    def test_two_equal_columns_singular(self):
        # the right null vector is e_i - e_k: a probe with equal entries i
        # and k (a constant one, say) lies in the range of k^T, and the
        # transposed solve alone misses the system under some orders
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, k = rng.choice(8, 2, replace=False)
            dense[:, k] = dense[:, i]
            for order in (None, rng.permutation(8)):
                with pytest.raises(SingularMatrixError):
                    solve(dense, np.ones(8), order)

    @staticmethod
    def _with_singleton_rows(rng):
        # rows 1 and 6 are singletons: they fix x_4 and x_0, and the caller
        # leaves them and those columns out of the reduced block, so its row
        # numbers differ from the matrix's
        dense = rng.standard_normal((10, 10))
        for r, c in ((1, 4), (6, 0)):
            dense[r] = 0.0
            dense[r, c] = 1e-3
        return dense, [0, 2, 3, 4, 5, 7, 8, 9], [1, 2, 3, 5, 6, 7, 8, 9]

    def test_dependent_pair_in_reduced_block_named_in_original_numbering(self):
        # column c of the reduced block holds rows i and k alone, and they
        # hold nothing else there: the LU stops on an exact zero, and the
        # dense search names one of the pair
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense, rest, cols = self._with_singleton_rows(rng)
            i, k = rng.choice(rest, 2, replace=False)
            c = rng.choice([2, 3, 5, 7, 8, 9])
            dense[:, c] = 0.0
            for r in (i, k):
                dense[r] = 0.0
                dense[r, [4, c]] = rng.standard_normal(2)
            for perm in (np.arange(8), rng.permutation(8)):
                rows = np.array(rest)[perm]
                with pytest.raises(SingularMatrixError) as exc:
                    solve_linear(reduced(dense, rows, np.array(cols)[perm]), rows, np.ones(8))
                assert exc.value.pivot_row in (i, k), seed

    def test_tiny_u_pivot_in_reduced_block_named_in_original_numbering(self):
        # row k is 1e-20 relative to its entry in the fixed column 4, so after
        # equilibration its part of the reduced block ends on a tiny U pivot
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense, rest, cols = self._with_singleton_rows(rng)
            k = rng.choice([q for q in rest if q != 4])
            dense[k] *= 1e-20
            dense[k, 4] = 1.0
            for perm in (np.arange(8), rng.permutation(8)):
                rows = np.array(rest)[perm]
                with pytest.raises(SingularMatrixError) as exc:
                    solve_linear(reduced(dense, rows, np.array(cols)[perm]), rows, np.ones(8))
                assert exc.value.pivot_row == k, seed

    def test_singletons_and_order_against_dense_oracle(self):
        # rows 0 and 3 are singletons and column 5 has one entry outside
        # them (row 2); they are factorised with the rest, in every order
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        dense[0] = 0.0
        dense[0, 1] = 2.0
        dense[3] = 0.0
        dense[3, 3] = -0.5
        dense[:, 5] = 0.0
        dense[2, 5] = 1.5
        b = rng.standard_normal(6)
        ref = dense_gauss_solve(dense, b)
        for order in (None, [5, 4, 3, 2, 1, 0], rng.permutation(6)):
            x = solve(dense, b, order)
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_second_singleton_on_a_fixed_unknown(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [-3.0, 0.0, 0.0]], np.ones(3))
        assert exc.value.pivot_row in (0, 2)

    def test_input_matrix_left_unchanged(self):
        # a stored zero included
        k = sp.csc_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 0, 1]),
                           np.array([0, 1, 3])), shape=(2, 2))
        solve_linear(k, np.arange(2), np.ones(2))
        assert k.data.tolist() == [1.0, 0.0, 1.0]

    def test_zero_row_singular(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve([[1.0, 0.0], [0.0, 0.0]], np.ones(2))
        assert exc.value.pivot_row == 1


class TestSingularError:
    """A failed ``splu`` of the forward solve or of the continuation step
    names its deficient row as ``solve_linear`` does, through the caller's
    order: ``singular_error`` runs the dense search on the matrix given to
    ``splu`` and maps the row it finds back."""

    @staticmethod
    def failing_splu(given):
        def splu(k, **kwargs):
            given.append(k)
            raise RuntimeError("planted")
        return splu

    def test_forward_lu(self, monkeypatch):
        # A - 4 I on the 3 x 3 interior grid of h = 1/4 is singular: its null
        # vector is (1, 0, -1) (x) (1, 0, -1), on the four corner nodes
        ops = assemble_operators(build_space(build_mesh(4)))
        given = []
        monkeypatch.setattr(state_solver, "splu", self.failing_splu(given))
        with pytest.raises(SingularMatrixError) as exc:
            state_solver._lu_solve(ops, np.full(ops.space.n, -4.0), np.ones(ops.space.n))
        nd = ops.space.nd_order
        assert not np.array_equal(nd, np.arange(ops.space.n))
        assert exc.value.pivot_row == nd[sparse_core._first_deficient_row(given[0])]
        assert exc.value.pivot_row in (0, 2, 6, 8)

    def test_large_system_names_no_row(self):
        # the dense search runs on systems of at most 2000 rows only
        k = sp.identity(2001, format="csc")
        assert sparse_core._first_deficient_row(k) == -1
        assert sparse_core.singular_error(k, np.arange(2001)).pivot_row == -1

    def test_continuation_lu(self, monkeypatch):
        # every refinement and FGMRES decline, so the first step factorises
        data, _ = build_example2(build_space(build_mesh(9)), 1e-3, 1e-12)
        given, splu = [], sparse_core.splu
        monkeypatch.setattr(sparse_core, "splu", self.failing_splu(given))
        monkeypatch.setattr(regpath, "refine", lambda lu, k, b: None)
        monkeypatch.setattr(regpath, "fgmres", lambda seed, k, b: None)
        _, rep = regpath.solve_regularized_kkt(data, 1e-2)
        n = data.ops.space.n
        row = sparse_core._first_deficient_row(given[0])
        order = np.column_stack([data.ops.space.nd_order, data.ops.space.nd_order + n]).ravel()
        assert rep.failure_reason == str(SingularMatrixError(int(order[row])))
        assert 0 <= order[row] < 2 * n
        # a Jacobian planted singular: y lies outside the smoothing band but
        # at node i, where p_i sets the (p_i, y_i) entry, a rank-one change
        # of the Jacobian at p = 0, to the value that makes it singular. Its
        # LU is made, and the probe names the row in block order where the
        # left null vector of the row-equilibrated Jacobian is largest
        ops, eps, alpha = data.ops, 1e-2, data.config.alpha
        params = SmoothedMaxParams(eps)
        y = np.random.default_rng(0).choice([-1.0, 1.0], n) * 2 * eps
        i = n // 2
        y[i] = eps / 2
        j11 = ops.A.toarray() + np.diag(ops.d * smoothed_max_prime(params, y))
        mm = ops.M.toarray()
        jac = np.block([[j11, mm / alpha], [-mm, j11]])
        shift = -1.0 / np.linalg.inv(jac)[i, n + i]
        jac[n + i, i] += shift
        p = np.zeros(n)
        p[i] = shift / (ops.d[i] * smoothed_max_second(params, y)[i])
        lus = []

        def made(k, **kwargs):
            lus.append(splu(k, **kwargs))
            return lus[-1]

        monkeypatch.setattr(sparse_core, "splu", made)
        _, rep = regpath.solve_regularized_kkt(data, eps, (y, p))
        u = np.linalg.svd(jac)[0][:, -1] * np.max(np.abs(jac), axis=1)
        assert len(lus) == 1 and rep.iterations == 0
        assert rep.failure_reason == str(SingularMatrixError(int(np.argmax(np.abs(u)))))


@pytest.fixture
def splu_calls(monkeypatch):
    """A list that grows by one on each ``sparse_core.splu`` call."""
    calls = []
    splu = sparse_core.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(sparse_core, "splu", counting)
    return calls


class TestHeldFactorisation:
    """``solve_linear`` holds nothing between calls: each reduced system is
    factorised afresh."""

    def test_nothing_held_without_a_holder(self, splu_calls):
        m = np.eye(3) + 0.1
        solve(m, np.ones(3))
        solve(m, np.ones(3))
        assert len(splu_calls) == 2

    def test_other_reduced_rows_factorised_afresh(self, splu_calls):
        dense = np.eye(4) + 0.1
        fixed = dense.copy()
        fixed[0] = [2.0, 0.0, 0.0, 0.0]  # row 0 now fixes x_0
        b = np.arange(1.0, 5.0)
        solve(dense, b)
        x = solve(fixed, b)
        assert len(splu_calls) == 2
        assert np.allclose(fixed @ x, b, rtol=0, atol=1e-14)

    def test_dependent_row_after_good_one_names_a_dependent_row(self, splu_calls):
        # after a regular matrix with the same pattern, the singular one gets
        # a fresh float64 LU, whose pivot test must name the row
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, j, k = rng.choice(8, 3, replace=False)
            good = dense.copy()
            good[k] = dense[i] + dense[j] + 1e-2 * rng.standard_normal(8)
            dense[k] = dense[i] + dense[j] + 1e-17 * rng.standard_normal(8)
            del splu_calls[:]
            solve(good, np.ones(8))
            with pytest.raises(SingularMatrixError) as exc:
                solve(dense, np.ones(8))
            assert len(splu_calls) == 2, seed
            assert exc.value.pivot_row in (i, j, k), seed


@pytest.fixture
def splu_dtypes(monkeypatch):
    """The dtype of each matrix ``sparse_core.splu`` factorises, in order."""
    dtypes = []
    splu = sparse_core.splu

    def recording(k, **kwargs):
        dtypes.append(k.dtype)
        return splu(k, **kwargs)

    monkeypatch.setattr(sparse_core, "splu", recording)
    return dtypes


class TestMixedPrecision:
    """The one LU of a reduced system is a float64 SuperLU, with one
    correction of its solution: it solves to float64 accuracy, solves
    backward stably a system that float32 cannot resolve, and gives every
    singular verdict."""

    def test_float32_solution_has_float64_accuracy(self, splu_dtypes):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((40, 40)) + 10 * np.eye(40)
        b = rng.standard_normal(40)
        x = solve(dense, b)
        assert splu_dtypes == [np.float64]
        ref = np.linalg.solve(dense, b)
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_singular_in_float32_regular_in_float64(self, splu_dtypes):
        # rows i and j differ by 1e-9 after equilibration (their largest
        # entries are equal), less than float32 resolves: the float64 LU
        # solves the system backward stably
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, j = rng.choice(8, 2, replace=False)
            c = np.argmax(np.abs(dense[i]))
            dense[i] /= np.abs(dense[i, c])
            noise = 1e-9 * rng.standard_normal(8)
            noise[c] = 0.0
            dense[j] = dense[i] + noise
            b = rng.standard_normal(8)
            del splu_dtypes[:]
            x = solve(dense, b)
            assert splu_dtypes == [np.float64], seed
            backward = np.max(np.abs(dense @ x - b)) / (
                np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert backward <= 1e-12, seed

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_example2_step_needs_no_float64_lu(self, alpha, splu_dtypes):
        # every step is refined from the pair seed, so no LU is made
        data, _ = build_example2(build_space(build_mesh(33)), alpha, 1e-12)
        kkt_solver.solve_kkt(data)
        assert splu_dtypes == []
        assert np.float64 not in splu_dtypes


class TestPivotTestReadsNoFactor:
    """The singularity test is made of solves: asking SuperLU for ``L`` or
    ``U`` makes it build and keep CSC copies of both factors, and
    ``perm_r`` only maps rows of ``U`` back."""

    FACTORS = {"L", "U", "perm_r"}

    def test_solve_linear(self, counting_splu):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((8, 8))
        solve(dense, np.ones(8))
        dense[5] = dense[1] + dense[2]
        with pytest.raises(SingularMatrixError):
            solve(dense, np.ones(8))
        # one LU for the regular system and one for the singular system
        assert counting_splu.calls == 2
        assert "solve" in counting_splu.served
        assert not counting_splu.served & self.FACTORS

    def test_solve_kkt(self, counting_splu, monkeypatch):
        from nsocp.examples import build_example2
        from nsocp.fe_mesh import assemble_operators, build_mesh, build_space
        from nsocp.kkt_solver import solve_kkt
        # a converging cell some of whose steps are factorised afresh once
        # FGMRES declines them
        monkeypatch.setattr(kkt_solver, "fgmres", lambda seed, k, b: None)
        data, _ = build_example2(build_space(build_mesh(65)), 1e-4, 1e-8)
        _, rep = solve_kkt(data)
        assert rep.converged and counting_splu.calls >= 1
        assert "solve" in counting_splu.served
        assert not counting_splu.served & self.FACTORS


class TestSharedLuOptions:
    """Every LU in the package is made with ``SPLU_OPTIONS``, whose panel is
    small: gstrf's panel work arrays grow with rows x panel size and sit on
    top of the finished factors (SuperLU's default panel is 20 columns)."""

    def test_panel_is_small(self):
        assert 1 <= sparse_core.SPLU_OPTIONS["panel_size"] <= 4

    def test_solve_kkt(self, counting_splu, monkeypatch):
        # a converging cell some of whose steps are factorised afresh once
        # FGMRES declines them
        monkeypatch.setattr(kkt_solver, "fgmres", lambda seed, k, b: None)
        data, _ = build_example2(build_space(build_mesh(65)), 1e-4, 1e-8)
        _, rep = kkt_solver.solve_kkt(data)
        assert rep.converged and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls

    @pytest.mark.parametrize("counting_splu", [state_solver], indirect=True,
                             ids=["state_solver"])
    def test_forward_solve(self, counting_splu, monkeypatch):
        # every refinement from the seed declines, so each step takes the LU
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)
        data, _ = build_example1(build_space(build_mesh(9)))
        space = data.ops.space
        _, rep = state_solver.solve_state(state_solver.StateProblem(data.ops, data.f),
                                          space.function(np.ones(space.n)))
        assert rep.converged and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls

    # the path's LUs are made by solve_linear
    @pytest.mark.parametrize("counting_splu", [sparse_core], indirect=True, ids=["regpath"])
    def test_run_path(self, counting_splu, monkeypatch):
        # a path whose refinement from the seed declines once, on this mesh,
        # and is factorised once FGMRES declines too
        monkeypatch.setattr(regpath, "fgmres", lambda seed, k, b: None)
        data, _ = build_example2(build_space(build_mesh(65)))
        _, report = regpath.run_path(
            data, regpath.RegPathConfig(tuple(10.0 ** -k for k in range(1, 7))))
        assert not report.aborted and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls


def _nbytes(m) -> int:
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


class TestSolveLinearMemory:
    """A KKT step that factorises keeps one copy of its system alive at a
    time. From its entry to ``solve_linear`` it allocates at most the
    row-scaled copy of the pair Jacobian and 2.5 times the reduced system,
    and one more copy of the Jacobian on the step that lays it out (2.7 and
    4.0 times the reduced system measured, which is as large as the Jacobian
    on these steps). A step refined from the pair seed forms no matrix: it
    allocates at most 32 n floats (24-26 n measured), less than the 3n
    Newton matrix stored alone (41 n floats' worth at m = 65)."""

    @staticmethod
    def traced_kkt_solve(m, monkeypatch, fresh=False):
        """solve_kkt of example 1 on an m-mesh under tracemalloc: per Newton
        step, the traced bytes at its entry, whether the pair Jacobian was
        laid out then, the bytes of n floats and the peak at its exit; for a
        step that factorises also the peak when ``solve_linear`` is entered,
        the bytes of the matrix it gets and those of the Jacobian. The solve
        refines every step from its pair seed; with ``fresh`` refinement and
        FGMRES decline, and every step is factorised instead."""
        step, solve = kkt_solver._newton_step, kkt_solver.solve_linear
        calls = []

        def traced_step(data, pt, sets, r, seed, jacobian):
            tracemalloc.reset_peak()
            call = {"entry": tracemalloc.get_traced_memory()[0],
                    "held": jacobian.matrix is not None, "input": 8 * data.ops.space.n}
            calls.append(call)
            x = step(data, pt, sets, r, seed, jacobian)
            call["exit"] = tracemalloc.get_traced_memory()[1]
            if jacobian.matrix is not None:
                call["jacobian"] = _nbytes(jacobian.matrix)
            return x

        def traced_solve(k, rows, b):
            calls[-1].update(factorize=tracemalloc.get_traced_memory()[1], k=_nbytes(k))
            return solve(k, rows, b)

        monkeypatch.setattr(kkt_solver, "_newton_step", traced_step)
        monkeypatch.setattr(kkt_solver, "solve_linear", traced_solve)
        if fresh:
            monkeypatch.setattr(kkt_solver, "refine", lambda lu, k, b: None)
            monkeypatch.setattr(kkt_solver, "fgmres", lambda seed, k, b: None)
        data, _ = build_example1(build_space(build_mesh(m)))
        tracemalloc.start()
        try:
            _, rep = kkt_solver.solve_kkt(data)
        finally:
            tracemalloc.stop()
        assert rep.converged
        return calls

    @pytest.mark.parametrize("m", [33, 65])
    def test_peak_before_factorisation(self, m, monkeypatch):
        fresh = [c for c in self.traced_kkt_solve(m, monkeypatch, fresh=True) if "k" in c]
        assert len(fresh) >= 2 and not fresh[0]["held"] and fresh[1]["held"]
        for c in fresh:
            laid_out = 0 if c["held"] else c["jacobian"]
            assert c["factorize"] - c["entry"] <= laid_out + c["jacobian"] + 2.5 * c["k"]

    @pytest.mark.parametrize("m", [33, 65])
    def test_peak_of_refined_step(self, m, monkeypatch):
        refined = self.traced_kkt_solve(m, monkeypatch)
        assert refined and all("k" not in c for c in refined)
        for c in refined:
            assert c["exit"] - c["entry"] <= 32 * c["input"]


class _Counting:
    """``k`` or a seed, counting its products or its solves."""

    def __init__(self, k):
        self.k, self.calls = k, 0
        self.dtype, self.shape = getattr(k, "dtype", None), k.shape

    def __matmul__(self, x):
        self.calls += 1
        return self.k @ x

    def solve(self, b):
        self.calls += 1
        return self.k.solve(b)


class TestRefine:
    """Refinement starts from x = 0, whose residual is b itself, so it takes
    one product fewer than it makes corrections."""

    @staticmethod
    def shifted_stiffness(m):
        ops = assemble_operators(build_space(build_mesh(m)))
        c = ops.d * np.random.default_rng(m).uniform(size=ops.space.n)
        return ops, (ops.A + sp.diags(c)).tocsr()

    @pytest.mark.parametrize("m", [9, 33])
    def test_products_are_corrections_less_one(self, m):
        ops, k = self.shifted_stiffness(m)
        b = np.random.default_rng(0).standard_normal(ops.space.n)
        seed, prod = _Counting(SineSeed(ops.space)), _Counting(k)
        x = refine(seed, prod, b)
        assert x is not None and seed.calls >= 2
        assert prod.calls == seed.calls - 1
        # the result of the same corrections, each from the residual b - k x
        # with its product, bit for bit
        ref = np.zeros(len(b))
        for _ in range(seed.calls):
            r = b - k @ ref
            scale = np.ldexp(1.0, np.frexp(np.max(np.abs(r)))[1])
            ref += scale * seed.k.solve((r / scale).astype(np.float32))
        assert np.array_equal(x.view(np.uint64), ref.view(np.uint64))

    def test_declined_refinement_counts_the_same(self, monkeypatch):
        ops, k = self.shifted_stiffness(33)
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 2)
        seed, prod = _Counting(SineSeed(ops.space)), _Counting(k)
        assert refine(seed, prod, np.ones(ops.space.n)) is None
        assert (seed.calls, prod.calls) == (2, 1)


def pair_system(m, alpha, seed):
    """The pair system of a KKT step whose I_gamma and I_crit cover every node,
    [[A + D 1{y>0}, M / alpha], [-M, A + D chi]] in the block order [y; p] of
    the pair seed, for y of either sign and chi in [0, 1], with a right-hand
    side: (operators, CSR matrix, b)."""
    ops = assemble_operators(build_space(build_mesh(m)))
    n, rng = ops.space.n, np.random.default_rng(seed)
    d_plus = ops.d * (rng.standard_normal(n) > 0)
    d_chi = ops.d * rng.uniform(0.0, 1.0, n)
    k = sp.bmat([[ops.A + sp.diags(d_plus), ops.M / alpha],
                 [-ops.M, ops.A + sp.diags(d_chi)]], format="csr")
    return ops, k, rng.standard_normal(2 * n)


class _Identity:
    """A seed that solves nothing: FGMRES with it is GMRES on k itself."""

    dtype = np.dtype(np.float64)

    def __init__(self, n):
        self.shape = (n, n)

    def solve(self, b):
        return b.copy()


class TestFgmres:
    """FGMRES from x = 0, right-preconditioned by a seed: one seed solve and
    one product per iteration, then one product for the true residual."""

    @pytest.mark.parametrize("m, alpha, seed", [(9, 1e-4, 0), (17, 1e-6, 1), (33, 1e-2, 2)])
    def test_meets_its_rule(self, m, alpha, seed):
        ops, k, b = pair_system(m, alpha, seed)
        pair, prod = _Counting(SineSeed(ops.space, alpha)), _Counting(k)
        x = fgmres(pair, prod, b)
        assert x is not None and 2 <= pair.calls <= sparse_core.MAX_KRYLOV
        assert prod.calls == pair.calls + 1
        assert np.linalg.norm(b - k @ x) <= sparse_core.SETTLE_RTOL * np.linalg.norm(b)
        ref = np.linalg.solve(k.toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_zero_right_hand_side(self):
        ops, k, b = pair_system(9, 1e-4, 0)
        pair = _Counting(SineSeed(ops.space, 1e-4))
        assert np.array_equal(fgmres(pair, k, np.zeros_like(b)), np.zeros_like(b))
        assert pair.calls == 0

    def test_stalled_seed_declines(self):
        # a seed that never reaches the first unknown: k seed^-1 is singular
        # and b lies outside its range, so no iterate of this Krylov space
        # solves k x = b. The estimate stalls near 0.8 for a dozen
        # iterations; then the rotated Hessenberg factor turns nearly
        # singular, the estimate falls below REFINE_RTOL on rounding alone
        # (the basis stays orthonormal to 1e-15), and the one product of the
        # true residual, which reads about 15 ||b||, declines the solution
        ops, k, b = pair_system(9, 1e-4, 3)
        stalled = SineSeed(ops.space, 1e-4)
        solve = stalled.solve

        def blind(r):
            z = solve(r)
            z[0] = 0.0
            return z

        stalled.solve = blind
        pair, prod = _Counting(stalled), _Counting(k)
        assert fgmres(pair, prod, b) is None
        assert prod.calls == pair.calls + 1 and pair.calls < sparse_core.MAX_KRYLOV

    def test_iteration_cap(self, monkeypatch):
        # GMRES on k itself contracts steadily but slowly: it is not solved
        # within MAX_KRYLOV iterations, and is with a larger cap
        ops, k, b = pair_system(17, 1e-2, 4)
        plain = _Counting(_Identity(len(b)))
        assert fgmres(plain, k, b) is None
        assert plain.calls == sparse_core.MAX_KRYLOV
        monkeypatch.setattr(sparse_core, "MAX_KRYLOV", 4 * sparse_core.MAX_KRYLOV)
        x = fgmres(_Identity(len(b)), k, b)
        assert x is not None
        assert np.linalg.norm(b - k @ x) <= sparse_core.SETTLE_RTOL * np.linalg.norm(b)

    def test_true_residual_decides(self):
        # the same solve with its last product, the check of the true
        # residual, planted 1e-9 off: the estimate is met, and it declines
        ops, k, b = pair_system(9, 1e-4, 5)
        pair = _Counting(SineSeed(ops.space, 1e-4))
        assert fgmres(pair, k, b) is not None
        checked = pair.calls + 1

        class Planted(_Counting):
            def __matmul__(self, x):
                y = super().__matmul__(x)
                return y + 1e-9 * np.linalg.norm(b) if self.calls == checked else y

        prod = Planted(k)
        assert fgmres(SineSeed(ops.space, 1e-4), prod, b) is None
        assert prod.calls == checked

    def test_peak_of_a_long_solve(self, monkeypatch):
        # the first Krylov step of example 2 at m = 65, gamma = 1e-6 (n = 4096)
        # takes about 53 iterations; its basis grows two vectors of 2n floats
        # per iteration, with about four more at the peak (109.6 of 110
        # measured at 53)
        data, _ = build_example2(build_space(build_mesh(65)), 1e-4, 1e-6)
        given = []

        class Stop(Exception):
            pass

        def first(seed, k, b):
            given.append((seed, k, b))
            raise Stop

        monkeypatch.setattr(kkt_solver, "fgmres", first)
        with pytest.raises(Stop):
            kkt_solver.solve_kkt(data)
        seed, k, b = given[0]
        pair = _Counting(seed)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            x = fgmres(pair, k, b)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert x is not None and 45 <= pair.calls < sparse_core.MAX_KRYLOV
        assert peak <= (2 * pair.calls + 4) * b.nbytes
