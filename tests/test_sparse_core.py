import numpy as np
import pytest

import scipy.sparse as sp

from nsocp.sparse_core import (
    CsrMatrix,
    SingularMatrixError,
    SparseError,
    assemble_block,
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
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(solve_linear(sp.identity(4, format="csr"), b), b)

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

    def test_zero_row_singular(self):
        m = csr([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(m, np.ones(2))
        assert exc.value.pivot_row == 1

    def test_non_square(self):
        m = csr([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SparseError):
            solve_linear(m, np.ones(2))


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
