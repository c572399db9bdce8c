"""Block assembly and deterministic direct solves on scipy.sparse matrices.

All heavy lifting (CSR arithmetic, sparse LU) is delegated to scipy; this
module pins down the error behavior the rest of the package relies on.
The stiffness and mass matrices are ``CsrMatrix``, a scipy CSR matrix in
canonical form; everything else here takes and returns plain scipy
matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "SparseError",
    "SingularMatrixError",
    "CsrMatrix",
    "solve_linear",
    "assemble_block",
]

# Pivot smaller than this times the largest initial row magnitude is
# reported as singular.
PIVOT_RTOL = 1e-14


class SparseError(ValueError):
    """Malformed sparse data (bad indices, inconsistent dimensions)."""


class SingularMatrixError(SparseError):
    """Structurally or numerically singular matrix in a direct solve.

    ``pivot_row`` is -1 when the factorisation does not name a row.
    """

    def __init__(self, pivot_row: int):
        self.pivot_row = pivot_row
        super().__init__(f"matrix is singular (deficient pivot in row {pivot_row})")


class CsrMatrix(sp.csr_matrix):
    """scipy CSR matrix in canonical form: within each row the column
    indices are strictly increasing and no (row, col) pair is stored twice."""

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        m = cls(m, copy=True)
        m.sum_duplicates()  # also sorts the column indices
        return m


def _factorize(m_sp: sp.csc_matrix):
    """Sparse LU with explicit singularity detection.

    The matrix must already be row-equilibrated (max row magnitude 1), so
    a pivot below PIVOT_RTOL marks a numerically deficient row.
    """
    try:
        lu = splu(m_sp, permc_spec="COLAMD")
    except RuntimeError as exc:
        row = _first_deficient_row(m_sp)
        raise SingularMatrixError(row) from exc
    udiag = np.abs(lu.U.diagonal())
    bad = np.flatnonzero(udiag < PIVOT_RTOL)
    if len(bad):
        # SuperLU factorises Pr A Pc = L U with Pr[perm_r[i], i] = 1, so row k
        # of U comes from the original row i with perm_r[i] == k
        raise SingularMatrixError(int(np.argsort(lu.perm_r)[bad[0]]))
    return lu


def _first_deficient_row(m_sp) -> int:
    """Best-effort identification of a deficient pivot row (small systems)."""
    n = m_sp.shape[0]
    if n <= 2000:
        a = m_sp.toarray()
        scale = np.max(np.abs(a)) or 1.0
        perm = np.arange(n)
        for k in range(n):
            piv = int(np.argmax(np.abs(a[k:, k]))) + k
            if np.abs(a[piv, k]) < PIVOT_RTOL * scale:
                return int(perm[k])
            if piv != k:
                a[[k, piv]] = a[[piv, k]]
                perm[[k, piv]] = perm[[piv, k]]
            a[k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k])
        return n - 1
    return -1


def solve_linear(m, b: np.ndarray) -> np.ndarray:
    """Solve m x = b by sparse LU with partial pivoting (deterministic);
    ``m`` is a square scipy sparse matrix.

    Rows are equilibrated first so the singularity test is invariant under
    row scaling (the prox rows of the KKT system carry entries of order
    gamma times a mesh factor and are perfectly well conditioned). One
    refinement step keeps the relative residual below 1e-10.
    """
    if m.shape[0] != m.shape[1]:
        raise SparseError("solve_linear requires a square matrix")
    b = np.asarray(b, dtype=float)
    if b.shape != (m.shape[0],):
        raise SparseError("right-hand side has wrong length")
    m_sp = sp.csr_matrix(m)
    row_mags = np.abs(m_sp).max(axis=1).toarray().ravel() if m_sp.nnz else np.zeros(len(b))
    dead = np.flatnonzero(row_mags == 0)
    if len(dead):
        raise SingularMatrixError(int(dead[0]))
    inv = sp.diags(1.0 / row_mags)
    m_eq = (inv @ m_sp).tocsr()
    b_eq = b / row_mags
    lu = _factorize(m_eq.tocsc())
    x = lu.solve(b_eq)
    # single refinement step
    r = b_eq - m_eq @ x
    x = x + lu.solve(r)
    return x


def assemble_block(blocks) -> sp.csr_matrix:
    """Concatenate a grid of scipy sparse blocks (None for a zero block) into
    one CSR matrix."""
    try:
        return sp.bmat(blocks, format="csr")
    except ValueError as exc:
        raise SparseError(str(exc)) from exc
