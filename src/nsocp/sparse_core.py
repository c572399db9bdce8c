"""Block assembly and deterministic direct solves on scipy.sparse matrices.

All heavy lifting (CSR arithmetic, sparse LU) is delegated to scipy; this
module pins down the error behavior the rest of the package relies on.
``solve_linear`` equilibrates the rows, eliminates singleton rows and
columns, and factorises only the reduced system, in an order the caller
supplies (for the KKT step, nested dissection of the mesh nodes). Every
pivot it takes is tested, and a deficient one is reported by its row in the
caller's numbering. ``CsrMatrix.from_scipy`` returns a scipy CSR matrix in
canonical form; A and M are built with it.
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


def _factorize(k: sp.csc_matrix, rows: np.ndarray):
    """Sparse LU of the reduced system ``k`` in the order it is given
    (no fill-reducing column ordering), with threshold partial pivoting.

    ``k`` must be row-equilibrated (max row magnitude at most 1), so a U
    pivot below PIVOT_RTOL marks a numerically deficient row; ``rows[i]`` is
    the original number of row i of ``k``, which the error reports.
    """
    try:
        lu = splu(k, permc_spec="NATURAL", diag_pivot_thresh=0.1)
    except RuntimeError as exc:
        row = _first_deficient_row(k)
        raise SingularMatrixError(int(rows[row]) if row >= 0 else -1) from exc
    udiag = np.abs(lu.U.diagonal())
    bad = np.flatnonzero(udiag < PIVOT_RTOL)
    if len(bad):
        # SuperLU factorises Pr A Pc = L U with Pr[perm_r[i], i] = 1, so row k
        # of U comes from the row i of ``k`` with perm_r[i] == k
        raise SingularMatrixError(int(rows[np.argsort(lu.perm_r)[bad[0]]]))
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


def _check_singletons(rows: np.ndarray, cols: np.ndarray, piv: np.ndarray) -> None:
    """Each singleton pivot (row, column, equilibrated value) needs a row and
    a column of its own and a magnitude of at least PIVOT_RTOL; otherwise the
    smallest offending row is named."""
    bad = np.abs(piv) < PIVOT_RTOL
    for idx in (rows, cols):
        bad |= np.bincount(idx)[idx] > 1
    if bad.any():
        raise SingularMatrixError(int(rows[bad].min()))


def solve_linear(m, b: np.ndarray, order=None) -> np.ndarray:
    """Solve m x = b (deterministic); ``m`` is a square scipy sparse matrix.

    The solve runs in five stages:

    1. Equilibrate: explicit zeros are dropped and each row is scaled to
       max magnitude 1, so every singularity test below is invariant under
       row scaling (the prox rows of the KKT system carry entries of order
       gamma times a mesh factor and are perfectly well conditioned).
    2. Eliminate singletons: a row with a single entry fixes its unknown.
       Among the remaining rows, a column with a single entry is deferred:
       its unknown is back-substituted from that row at the end.
    3. Factorise the reduced system by sparse LU, with its rows and columns
       numbered as in ``order`` (a permutation of range(n) listing the
       unknowns, each with its equation, in elimination order; None keeps
       the given numbering) and threshold partial pivoting.
    4. Refine the reduced solution once.
    5. Back-substitute the deferred unknowns.

    SingularMatrixError names a deficient row in the numbering of ``m``: an
    empty row, a second singleton row on a fixed unknown, a singleton pivot
    below PIVOT_RTOL, or a U pivot of the reduced LU below PIVOT_RTOL.
    """
    if m.shape[0] != m.shape[1]:
        raise SparseError("solve_linear requires a square matrix")
    b = np.asarray(b, dtype=float)
    n = m.shape[0]
    if b.shape != (n,):
        raise SparseError("right-hand side has wrong length")
    if order is not None:
        order = np.asarray(order)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise SparseError("order must be a permutation of range(n)")
    m_sp = sp.csr_matrix(m, copy=True)
    m_sp.sum_duplicates()
    m_sp.eliminate_zeros()
    counts = np.diff(m_sp.indptr)
    row_mags = np.abs(m_sp).max(axis=1).toarray().ravel() if m_sp.nnz else np.zeros(n)
    dead = np.flatnonzero(counts == 0)
    if len(dead):
        raise SingularMatrixError(int(dead[0]))
    m_eq = (sp.diags(1.0 / row_mags) @ m_sp).tocsr()
    b_eq = b / row_mags
    indptr, indices = m_eq.indptr, m_eq.indices

    # row singletons fix their unknowns
    fix_rows = np.flatnonzero(counts == 1)
    fix_cols = indices[indptr[fix_rows]]
    fix_piv = m_eq.data[indptr[fix_rows]]
    _check_singletons(fix_rows, fix_cols, fix_piv)
    x = np.zeros(n)
    x[fix_cols] = b_eq[fix_rows] / fix_piv

    # among the other rows, column singletons are deferred
    rest = np.flatnonzero(counts != 1)
    sub = m_eq[rest]
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fix_cols] = True
    live = ~is_fixed[sub.indices]
    col_counts = np.bincount(sub.indices[live], minlength=n)
    pos = np.flatnonzero(live & (col_counts[sub.indices] == 1))
    def_rows = rest[np.searchsorted(sub.indptr, pos, side="right") - 1]
    def_cols = sub.indices[pos]
    def_piv = sub.data[pos]
    _check_singletons(def_rows, def_cols, def_piv)

    keep_row = np.ones(n, dtype=bool)
    keep_row[fix_rows] = False
    keep_row[def_rows] = False
    keep_col = ~is_fixed
    keep_col[def_cols] = False
    rows, cols = np.flatnonzero(keep_row), np.flatnonzero(keep_col)
    if order is not None:
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        rows = rows[np.argsort(rank[rows], kind="stable")]
        cols = cols[np.argsort(rank[cols], kind="stable")]

    if len(rows):
        m_rows = m_eq[rows]
        k = m_rows[:, cols]
        b_red = b_eq[rows] - m_rows @ x
        lu = _factorize(k.tocsc(), rows)
        x_red = lu.solve(b_red)
        # single refinement step
        x_red = x_red + lu.solve(b_red - k @ x_red)
        x[cols] = x_red
    if len(def_rows):
        # each deferred row holds no other deferred unknown, and x is 0 there
        x[def_cols] = (b_eq[def_rows] - m_eq[def_rows] @ x) / def_piv
    return x


def assemble_block(blocks) -> sp.csr_matrix:
    """Concatenate a grid of scipy sparse blocks (None for a zero block) into
    one CSR matrix."""
    try:
        return sp.bmat(blocks, format="csr")
    except ValueError as exc:
        raise SparseError(str(exc)) from exc
