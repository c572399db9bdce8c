import tracemalloc

import numpy as np
import pytest

import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

from nsocp import kkt_solver, regpath, sparse_core, state_solver
from nsocp.examples import build_example1
from nsocp.fe_mesh import build_mesh, build_space
from nsocp.sparse_core import (
    CsrMatrix,
    SingularMatrixError,
    SparseError,
    assemble_block,
    entry_positions,
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


def csr(dense) -> sp.csr_matrix:
    return sp.csr_matrix(np.asarray(dense, dtype=float))


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
    def test_identity(self, monkeypatch):
        # every row is a singleton, so nothing is left to factorise
        import nsocp.sparse_core as sc

        def no_lu(*args, **kwargs):
            raise AssertionError("splu called")

        monkeypatch.setattr(sc, "splu", no_lu)
        b = np.array([1.0, -2.0, 3.5, 1e-30])
        assert np.array_equal(solve_linear(sp.identity(4, format="csr"), b), b)

    def test_small_system(self):
        m = csr([[4.0, -1.0], [-1.0, 4.0]])
        x = solve_linear(m, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-13)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(1234)
        n = 50
        dense = np.zeros((n, n))
        for _ in range(4 * n):
            i, j = rng.integers(0, n, 2)
            dense[i, j] += rng.standard_normal()
        dense = dense @ dense.T + n * np.eye(n)  # SPD
        m = csr(dense)
        b = rng.standard_normal(n)
        x = solve_linear(m, b)
        x_oracle = dense_gauss_solve(dense, b)
        assert np.linalg.norm(x - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 20
            dense = rng.standard_normal((n, n)) + n * np.eye(n)
            m = csr(dense)
            b = rng.standard_normal(n)
            x = solve_linear(m, b)
            res = np.linalg.norm(dense @ x - b) / np.linalg.norm(b)
            assert res <= 1e-10

    def test_symmetric_solution_identity(self):
        rng = np.random.default_rng(42)
        n = 15
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T + 3 * n * np.eye(n)
        m = csr(dense)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sx = solve_linear(m, x)
        sy = solve_linear(m, y)
        # A^{-1} of a symmetric matrix is symmetric
        assert abs(x @ sy - y @ sx) <= 1e-12 * max(1.0, abs(x @ sy))

    def test_singular_names_pivot_row(self):
        m = csr([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(m, np.ones(2))
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
                solve_linear(csr(dense), np.ones(8))
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
                    solve_linear(csr(dense), np.ones(8), order)
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
                    solve_linear(csr(dense), np.ones(8), order)

    @staticmethod
    def _with_singleton_rows(rng):
        # rows 1 and 6 are singletons: they fix x_4 and x_0 and leave the
        # reduced block, so its row numbers differ from the matrix's
        dense = rng.standard_normal((10, 10))
        for r, c in ((1, 4), (6, 0)):
            dense[r] = 0.0
            dense[r, c] = 1e-3
        return dense, [0, 2, 3, 4, 5, 7, 8, 9]

    def test_dependent_pair_in_reduced_block_named_in_original_numbering(self):
        # column c of the reduced block holds rows i and k alone, and they
        # hold nothing else there: the LU stops on an exact zero, and the
        # dense search names one of the pair
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense, rest = self._with_singleton_rows(rng)
            i, k = rng.choice(rest, 2, replace=False)
            c = rng.choice([2, 3, 5, 7, 8, 9])
            dense[:, c] = 0.0
            for r in (i, k):
                dense[r] = 0.0
                dense[r, [4, c]] = rng.standard_normal(2)
            for order in (None, rng.permutation(10)):
                with pytest.raises(SingularMatrixError) as exc:
                    solve_linear(csr(dense), np.ones(10), order)
                assert exc.value.pivot_row in (i, k), seed

    def test_tiny_u_pivot_in_reduced_block_named_in_original_numbering(self):
        # row k is 1e-20 relative to its entry in the fixed column 4, so after
        # equilibration its part of the reduced block ends on a tiny U pivot
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense, rest = self._with_singleton_rows(rng)
            k = rng.choice([q for q in rest if q != 4])
            dense[k] *= 1e-20
            dense[k, 4] = 1.0
            for order in (None, rng.permutation(10)):
                with pytest.raises(SingularMatrixError) as exc:
                    solve_linear(csr(dense), np.ones(10), order)
                assert exc.value.pivot_row == k, seed

    def test_singletons_and_order_against_dense_oracle(self):
        # rows 0 and 3 are singletons; column 5 has one entry outside them
        # (row 2), so x_5 is back-substituted from row 2
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
            x = solve_linear(csr(dense), b, order)
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_second_singleton_on_a_fixed_unknown(self):
        m = csr([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [-3.0, 0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(m, np.ones(3))
        assert exc.value.pivot_row in (0, 2)

    def test_order_must_be_permutation(self):
        m = csr(np.eye(3) + 0.1)
        for order in ([0, 1], [0, 1, 1], [0, 1, 3]):
            with pytest.raises(SparseError):
                solve_linear(m, np.ones(3), order)

    def test_input_matrix_left_unchanged(self):
        m = sp.csr_matrix((np.array([2.0, 0.0, 3.0]), np.array([0, 1, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        solve_linear(m, np.ones(2))
        assert m.data.tolist() == [2.0, 0.0, 3.0]

    def test_zero_row_singular(self):
        m = csr([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(m, np.ones(2))
        assert exc.value.pivot_row == 1

    def test_non_square(self):
        m = csr([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SparseError):
            solve_linear(m, np.ones(2))


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
    def test_nearby_matrix_solved_from_held_lu(self, splu_calls):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal(30)
        nearby = dense + np.diag(1e-3 * rng.random(30))
        held = []
        solve_linear(csr(dense), b, held=held)
        x = solve_linear(csr(nearby), b, held=held)
        assert len(splu_calls) == 1
        ref = dense_gauss_solve(nearby, b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_nothing_held_without_a_holder(self, splu_calls):
        m = csr(np.eye(3) + 0.1)
        solve_linear(m, np.ones(3))
        solve_linear(m, np.ones(3))
        assert len(splu_calls) == 2

    def test_other_reduced_rows_factorised_afresh(self, splu_calls):
        dense = np.eye(4) + 0.1
        fixed = dense.copy()
        fixed[0] = [2.0, 0.0, 0.0, 0.0]  # row 0 now fixes x_0
        b = np.arange(1.0, 5.0)
        held = []
        solve_linear(csr(dense), b, held=held)
        x = solve_linear(csr(fixed), b, held=held)
        assert len(splu_calls) == 2
        assert np.allclose(fixed @ x, b, rtol=0, atol=1e-14)

    def test_dependent_row_after_good_one_names_a_dependent_row(self, splu_calls):
        # the held LU is that of a regular matrix with the same pattern;
        # refinement on the singular one cannot contract, so the fresh LU's
        # pivot test must name the row
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((8, 8))
            i, j, k = rng.choice(8, 3, replace=False)
            good = dense.copy()
            good[k] = dense[i] + dense[j] + 1e-2 * rng.standard_normal(8)
            dense[k] = dense[i] + dense[j] + 1e-17 * rng.standard_normal(8)
            del splu_calls[:]
            held = []
            solve_linear(csr(good), np.ones(8), held=held)
            with pytest.raises(SingularMatrixError) as exc:
                solve_linear(csr(dense), np.ones(8), held=held)
            assert len(splu_calls) == 2, seed
            assert exc.value.pivot_row in (i, j, k), seed

    def test_holder_is_rows_cols_lu_after_a_fresh_solve(self, splu_calls):
        # row 0 fixes x_0, so the reduced system is rows and columns 1..3
        dense = np.eye(4) + 0.1
        dense[0] = [2.0, 0.0, 0.0, 0.0]
        held = []
        solve_linear(csr(dense), np.ones(4), held=held)
        assert len(splu_calls) == 1 and len(held) == 3
        rows, cols, lu = held
        assert np.array_equal(rows, [1, 2, 3]) and np.array_equal(cols, [1, 2, 3])
        assert isinstance(lu, SuperLU) and lu.shape == (3, 3)


class TestPivotTestReadsNoFactor:
    """The singularity test is made of solves: asking SuperLU for ``L`` or
    ``U`` makes it build and keep CSC copies of both factors, and
    ``perm_r`` only maps rows of ``U`` back."""

    FACTORS = {"L", "U", "perm_r"}

    def test_solve_linear(self, counting_splu):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((8, 8))
        solve_linear(csr(dense), np.ones(8))
        dense[5] = dense[1] + dense[2]
        with pytest.raises(SingularMatrixError):
            solve_linear(csr(dense), np.ones(8))
        assert counting_splu.calls == 2
        assert "solve" in counting_splu.served
        assert not counting_splu.served & self.FACTORS

    def test_solve_kkt(self, counting_splu):
        from nsocp.examples import build_example1
        from nsocp.fe_mesh import build_mesh, build_space
        from nsocp.kkt_solver import solve_kkt
        data, _ = build_example1(build_space(build_mesh(9)))
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

    def test_solve_kkt(self, counting_splu):
        data, _ = build_example1(build_space(build_mesh(9)))
        _, rep = kkt_solver.solve_kkt(data)
        assert rep.converged and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls

    @pytest.mark.parametrize("counting_splu", [state_solver], indirect=True,
                             ids=["state_solver"])
    def test_forward_solve(self, counting_splu):
        data, _ = build_example1(build_space(build_mesh(9)))
        space = data.ops.space
        _, rep = state_solver.solve_state(state_solver.StateProblem(data.ops, data.f),
                                          space.function(np.ones(space.n)))
        assert rep.converged and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls

    @pytest.mark.parametrize("counting_splu", [regpath], indirect=True, ids=["regpath"])
    def test_run_path(self, counting_splu):
        data, _ = build_example1(build_space(build_mesh(9)))
        _, report = regpath.run_path(data, regpath.RegPathConfig((1e-1, 1e-2)))
        assert not report.aborted and counting_splu.calls >= 1
        assert counting_splu.kwargs == [dict(sparse_core.SPLU_OPTIONS)] * counting_splu.calls


def _nbytes(m) -> int:
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


class TestSolveLinearMemory:
    """``solve_linear`` keeps one copy of the system alive at a time. From
    its entry to a fresh LU it allocates at most its equilibrated copy of
    the input and 2.5 times the reduced system (3.6 times when it held the
    copy, the reduced rows, their column slice and the CSC matrix at once).
    A step refined from the held LU forms no reduced system: it allocates at
    most 2.5 times its input (4.4 times when it sliced and converted one)."""

    @staticmethod
    def traced_kkt_solve(m, monkeypatch):
        """solve_kkt of example 1 on an m-mesh under tracemalloc: per
        solve_linear call, the traced bytes at its entry, its input's bytes
        and the peak at its exit; for a fresh LU also the peak when
        ``_factorize`` is entered and the bytes of the matrix it gets."""
        solve, factorize = sparse_core.solve_linear, sparse_core._factorize
        calls = []

        def traced_solve(mat, *args):
            tracemalloc.reset_peak()
            call = {"entry": tracemalloc.get_traced_memory()[0], "input": _nbytes(mat)}
            calls.append(call)
            x = solve(mat, *args)
            call["exit"] = tracemalloc.get_traced_memory()[1]
            return x

        def traced_factorize(k, rows):
            calls[-1].update(factorize=tracemalloc.get_traced_memory()[1], k=_nbytes(k))
            return factorize(k, rows)

        monkeypatch.setattr(sparse_core, "solve_linear", traced_solve)
        monkeypatch.setattr(sparse_core, "_factorize", traced_factorize)
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
        fresh = [c for c in self.traced_kkt_solve(m, monkeypatch) if "k" in c]
        assert fresh
        for c in fresh:
            assert c["factorize"] - c["entry"] <= c["input"] + 2.5 * c["k"]

    @pytest.mark.parametrize("m", [33, 65])
    def test_peak_of_refined_step(self, m, monkeypatch):
        refined = [c for c in self.traced_kkt_solve(m, monkeypatch) if "k" not in c]
        assert refined
        for c in refined:
            assert c["exit"] - c["entry"] <= 2.5 * c["input"]


class TestEntryPositions:
    def test_positions_in_unsorted_rows(self):
        # row 0 stores its diagonal last, row 1 first
        k = sp.csr_matrix((np.array([5.0, 1.0, 2.0, 6.0]), np.array([1, 0, 1, 0]),
                           np.array([0, 2, 4])), shape=(2, 2))
        i = np.arange(2)
        pos = entry_positions(k, i, i)
        assert pos.tolist() == [1, 2]
        assert k.data[pos].tolist() == [1.0, 2.0]

    def test_off_diagonal_entries_of_some_rows(self):
        # rows 0 and 2 of an unsorted 3 x 3 matrix, asked for (0, 2) and (2, 1)
        k = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                           np.array([2, 0, 1, 1, 2, 0]), np.array([0, 2, 3, 6])),
                          shape=(3, 3))
        pos = entry_positions(k, [0, 2], [2, 1])
        assert pos.tolist() == [0, 3]
        assert k.data[pos].tolist() == [1.0, 4.0]
        assert entry_positions(k, [], []).tolist() == []

    @pytest.mark.parametrize("dense", [[[1.0, 2.0], [3.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
    def test_missing_diagonal_entry_rejected(self, dense):
        i = np.arange(2)
        with pytest.raises(SparseError, match="stored exactly once"):
            entry_positions(csr(dense), i, i)

    def test_duplicated_entry_rejected(self):
        # row 1 stores (1, 0) twice; summing the duplicates would hide it
        k = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 0, 1]),
                           np.array([0, 1, 4])), shape=(2, 2))
        with pytest.raises(SparseError, match="stored exactly once"):
            entry_positions(k, [1], [0])
        assert entry_positions(k, [1], [1]).tolist() == [3]

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0], [-1, 0], [0, 2]])
    def test_rows_must_increase_strictly_within_the_matrix(self, rows):
        with pytest.raises(SparseError, match="strictly increasing"):
            entry_positions(csr(np.eye(2)), rows, [0, 1])

    def test_rows_and_columns_must_pair_up(self):
        with pytest.raises(SparseError, match="one per column"):
            entry_positions(csr(np.eye(2)), [0, 1], [0])


class TestAssembleBlock:
    def test_diagonal_identities(self):
        i2 = csr(np.eye(2))
        out = assemble_block([[i2, None, None], [None, i2, None], [None, None, i2]])
        assert np.allclose(out.toarray(), np.eye(6))

    def test_inconsistent_dimensions(self):
        with pytest.raises(SparseError):
            assemble_block([[csr(np.eye(2)), csr(np.eye(3))]])

    def test_kkt_layout_single_node(self):
        # 3x3 saddle-point layout on a one-unknown mesh, checked against a
        # hand-assembled dense matrix
        m = csr([[0.125]])
        alpha, gamma = 1.0, 1.0
        chi, p = 0.0, 2.0
        # y = 2 > 0 and y + gamma*chi = 2 outside [0, gamma]
        out = assemble_block([
            [csr([[4.0 + 0.25]]), (1.0 / alpha) * m, None],
            [-1.0 * m, csr([[4.0 + 0.25 * chi]]), csr([[0.25 * p]])],
            [csr([[0.0]]), None, -gamma * csr([[0.25]])],
        ]).toarray()
        expect = np.array([
            [4.25, 0.125, 0.0],
            [-0.125, 4.0, 0.5],
            [0.0, 0.0, -0.25],
        ])
        assert np.allclose(out, expect)
