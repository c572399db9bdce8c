"""Block assembly and deterministic direct solves on scipy.sparse matrices.

All heavy lifting (CSR arithmetic, sparse LU) is delegated to scipy; this
module pins down the error behavior the rest of the package relies on.
``solve_linear`` equilibrates the rows, eliminates singleton rows and
columns, and factorises only the reduced system, in an order the caller
supplies (for the KKT step, nested dissection of the mesh nodes). Every
singleton pivot it takes is tested, and every fresh LU of the reduced system
is tested by a condition estimate: a transposed solve of a fixed probe and
a solve of its result, which read neither factor. A deficient row is
reported in the caller's numbering. It keeps one copy of the system alive
at a time: the equilibrated copy of its input gives way to the reduced rows,
they to their column slice, and that to the CSC matrix that is factorised;
refinement from a held LU (below) takes its products from the equilibrated
copy and makes no other.

``SPLU_OPTIONS`` are the SuperLU options of every LU in the package: this
module's and those of ``state_solver`` and ``regpath``, which call their own
``splu`` with them. Beside the caller's order and threshold pivoting they fix
a small panel, which bounds the work arrays SuperLU holds on top of the
finished factors.

A caller that passes a holder (a list; ``kkt_solver.solve_kkt`` keeps one
per call) gets the last fresh LU of the reduced system held in it with its
rows and columns. A later system that reduces to the same rows and columns
is solved by iterative refinement preconditioned by that LU (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 12); when
refinement stops contracting, the held LU is dropped and a fresh one, with
its probe test, takes its place. The module itself holds nothing.
``refine`` is that refinement and its acceptance rule; the continuation
step of ``regpath`` uses it too, from an LU held along the eps schedule.

``CsrMatrix.from_scipy`` returns a scipy CSR matrix in canonical form; A and
M are built with it. ``entry_positions`` locates given entries of a CSR matrix
in its data, once, so that a solver can refill them in place with no search.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

__all__ = [
    "SparseError",
    "SingularMatrixError",
    "SPLU_OPTIONS",
    "CsrMatrix",
    "solve_linear",
    "refine",
    "entry_positions",
    "assemble_block",
]

# The SuperLU options of every LU in the package (this module's, the forward
# solves' and the continuation step's): the matrix is factorised in the order
# it is given, with threshold partial pivoting, in panels of 4 columns. gstrf
# allocates its panel work arrays in proportion to rows x panel size and frees
# them only once the factors are complete, so at the peak they sit on top of
# the factors. On the reduced KKT matrix at m = 257, SuperLU's default panel
# of 20 columns adds 45 MB and 4 columns add 13 MB, with the same fill and
# row pivots and a factor time within run-to-run spread; 2 and 1 columns are
# slower.
SPLU_OPTIONS = MappingProxyType(
    {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1, "panel_size": 4})

# Singular, after each row is scaled to max magnitude 1: a singleton pivot
# below PIVOT_RTOL, or a probe solve of the reduced system k that grows by
# 1 / PIVOT_RTOL or more (max|z| / max|s| for z = k^-T s, or the same for
# the solve with k that follows; see _factorize).
PIVOT_RTOL = 1e-14
# Refinement from a held LU accepts a correction of at most REFINE_RTOL times
# the solution (max norms); it gives up on a correction more than
# CONTRACTION times the one before, or after MAX_CORRECTIONS corrections.
REFINE_RTOL = 1e-14
CONTRACTION = 0.5
MAX_CORRECTIONS = 30


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
    (no fill-reducing column ordering), with threshold partial pivoting,
    and its singularity test.

    The test is a LINPACK-style condition estimate with a fixed probe s
    (Cline, Moler, Stewart and Wilkinson, SIAM J. Numer. Anal. 16, 1979;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 15): a transposed solve z = k^-T s, then y = k^-1 w with
    w = z / max|z|. ``k`` must be row-equilibrated (max row magnitude at
    most 1), so a growth max|z| / max|s| or max|y| / max|w| of at least
    1 / PIVOT_RTOL, or a non-finite z or y, marks it numerically singular.
    The second solve catches a singular system whose right null vector is
    nearly orthogonal to s, for which z stays moderate (two equal columns
    did so under some elimination orders). z points along the left null
    vector, which is nonzero only on the dependent rows whatever the
    elimination order, and its largest entry names the row: ``rows[i]`` is
    the original number of row i of ``k``. The test reads neither factor,
    so SuperLU never builds copies of L and U.
    """
    try:
        lu = splu(k, **SPLU_OPTIONS)
    except RuntimeError as exc:
        row = _first_deficient_row(k)
        raise SingularMatrixError(int(rows[row]) if row >= 0 else -1) from exc
    # random, so that no structured system is orthogonal to it (a constant
    # probe is to the null vector e_i - e_k of two equal columns) and z
    # points along the left null vector
    s = np.random.default_rng(20171).standard_normal(k.shape[0])
    z = lu.solve(s, trans="T")
    z_max = np.max(np.abs(z))
    y_max = np.max(np.abs(lu.solve(z / z_max)))
    # written so that a NaN fails it
    if not (z_max * PIVOT_RTOL < np.max(np.abs(s)) and y_max * PIVOT_RTOL < 1.0):
        raise SingularMatrixError(int(rows[np.argmax(np.abs(z))]))
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


def solve_linear(m, b: np.ndarray, order=None, held=None) -> np.ndarray:
    """Solve m x = b (deterministic); ``m`` is a square scipy sparse matrix.

    The solve runs in five stages:

    1. Equilibrate: explicit zeros are dropped and each row is scaled to
       max magnitude 1, so every singularity test below is invariant under
       row scaling (the prox rows of the KKT system carry entries of order
       gamma times a mesh factor and are perfectly well conditioned). This
       is the one working copy of ``m``.
    2. Eliminate singletons: a row with a single entry fixes its unknown.
       Among the remaining rows, a column with a single entry is deferred:
       its unknown is back-substituted from that row at the end.
    3. Solve the reduced system, with its rows and columns numbered as in
       ``order`` (a permutation of range(n) listing the unknowns, each with
       its equation, in elimination order; None keeps the given numbering).
       ``held`` is the caller's holder: None, or a list that is empty or
       ``[rows, cols, LU]`` of an earlier reduced system. If that system
       had the same rows and columns, the solution is found by iterative
       refinement preconditioned by its LU, and is accepted once a
       correction is at most REFINE_RTOL of the solution (max norms). Its
       products with the reduced system are taken from the working copy, so
       no copy of the reduced system is made. If a
       correction is more than CONTRACTION times the one before, or
       MAX_CORRECTIONS pass, the holder is cleared and the system falls
       back to the fresh path.
    4. Fresh path: the reduced rows of the working copy replace it, their
       column slice replaces them and its CSC copy replaces the slice, each
       freed as soon as the next exists. That matrix is factorised by
       sparse LU with ``SPLU_OPTIONS`` (threshold partial pivoting, a small
       panel) and tested by a transposed solve of a fixed probe and a solve
       of its result (see ``_factorize``), and its solution is refined
       once; a holder given in ``held`` then holds that LU with its rows and
       columns.
    5. Back-substitute the deferred unknowns.

    SingularMatrixError names a deficient row in the numbering of ``m``: an
    empty row, a second singleton row on a fixed unknown, or a singleton
    pivot below PIVOT_RTOL (tested on every call), or, for a fresh reduced
    LU, a probe solve that grows by 1 / PIVOT_RTOL or more, named by the
    largest entry of the transposed solve. A singular reduced system stops
    refinement from contracting, so it reaches the fresh LU and its probe
    test.
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
    # the one working copy, equilibrated in place
    m_eq = sp.csr_matrix(m, copy=True)
    m_eq.sum_duplicates()
    m_eq.eliminate_zeros()
    indptr, indices, data = m_eq.indptr, m_eq.indices, m_eq.data
    counts = np.diff(indptr)
    dead = np.flatnonzero(counts == 0)
    if len(dead):
        raise SingularMatrixError(int(dead[0]))
    row_mags = np.maximum.reduceat(np.abs(data), indptr[:-1])
    data *= np.repeat(1.0 / row_mags, counts)
    b_eq = b / row_mags

    # row singletons fix their unknowns
    fix_rows = np.flatnonzero(counts == 1)
    fix_cols = indices[indptr[fix_rows]]
    fix_piv = data[indptr[fix_rows]]
    _check_singletons(fix_rows, fix_cols, fix_piv)
    x = np.zeros(n)
    x[fix_cols] = b_eq[fix_rows] / fix_piv

    # among the other rows, column singletons are deferred
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fix_cols] = True
    live = np.repeat(counts != 1, counts)
    live &= ~is_fixed[indices]
    live &= (np.bincount(indices[live], minlength=n) == 1)[indices]
    pos = np.flatnonzero(live)
    del live
    def_rows = np.searchsorted(indptr, pos, side="right") - 1
    def_cols = indices[pos]
    def_piv = data[pos]
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

    m_def = m_eq[def_rows]
    del indptr, indices, data  # they would keep the working copy alive
    if len(rows):
        b_red = b_eq[rows] - (m_eq @ x)[rows]
        x_red = None
        if held and np.array_equal(held[0], rows) and np.array_equal(held[1], cols):
            x_red = refine(held[2], _reduced_operator(m_eq, rows, cols), b_red)
        if x_red is None:
            if held:
                held.clear()  # free the old LU before the new one is built
            # one copy of the system at a time: each replaces the one before
            m_eq = m_eq[rows]
            m_eq = m_eq[:, cols]
            k = m_eq.tocsc()
            del m_eq
            lu = _factorize(k, rows)
            if held is not None:
                held.extend((rows, cols, lu))
            x_red = lu.solve(b_red)
            x_red += lu.solve(b_red - k @ x_red)
        x[cols] = x_red
    if len(def_rows):
        # each deferred row holds no other deferred unknown, and x is 0 there
        x[def_cols] = (b_eq[def_rows] - m_def @ x) / def_piv
    return x


def _reduced_operator(m_eq, rows: np.ndarray, cols: np.ndarray) -> LinearOperator:
    """z -> k z for the reduced system k = m_eq[rows][:, cols], taken from
    ``m_eq`` itself, so that refinement needs no copy of k."""
    full = np.zeros(m_eq.shape[1])

    def matvec(z):
        full[cols] = z
        return (m_eq @ full)[rows]

    return LinearOperator((len(rows), len(cols)), matvec=matvec, dtype=float)


def refine(lu, k, b: np.ndarray):
    """Iterative refinement x <- x + LU^-1 (b - k x) from x = 0, with ``lu``
    the factorisation of a nearby matrix and ``k`` the matrix or an operator
    with ``k @ x``; None when it stops contracting.

    ``solve_linear`` and ``regpath.solve_regularized_kkt`` both use it, so
    REFINE_RTOL, CONTRACTION and MAX_CORRECTIONS are the one acceptance
    rule for a held LU.
    """
    x = np.zeros(len(b))
    prev = np.inf
    for _ in range(MAX_CORRECTIONS):
        dx = lu.solve(b - k @ x)
        x += dx
        size = np.max(np.abs(dx))
        if size <= REFINE_RTOL * np.max(np.abs(x)):
            return x
        if not size <= CONTRACTION * prev:  # also ends on a NaN
            return None
        prev = size
    return None


def entry_positions(k: sp.csr_matrix, rows, cols) -> np.ndarray:
    """Index in ``k.data`` of each entry (rows[j], cols[j]) of the CSR matrix
    ``k``, reading only those rows. ``rows`` must be strictly increasing; a
    row may store its columns in any order, but the entry exactly once."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    # increasing from -1 to the row count: distinct rows of k, in order
    if rows.shape != cols.shape or np.any(np.diff(rows, prepend=-1, append=k.shape[0]) <= 0):
        raise SparseError("rows must be strictly increasing rows of k, one per column")
    starts = k.indptr[rows]
    counts = k.indptr[rows + 1] - starts
    # every stored entry of those rows, row by row, and the entry j it may be
    pos = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    j = np.repeat(np.arange(len(rows)), counts)
    hit = np.flatnonzero(k.indices[pos] == cols[j])
    if not np.array_equal(j[hit], np.arange(len(rows))):
        raise SparseError("every entry asked for must be stored exactly once")
    return pos[hit]


def assemble_block(blocks) -> sp.csr_matrix:
    """Concatenate a grid of scipy sparse blocks (None for a zero block) into
    one CSR matrix."""
    try:
        return sp.bmat(blocks, format="csr")
    except ValueError as exc:
        raise SparseError(str(exc)) from exc
