"""Deterministic direct solves on scipy.sparse matrices, refinement and FGMRES.

All heavy lifting (CSR arithmetic, sparse LU) is delegated to scipy; this
module pins down the error behavior the rest of the package relies on.
``solve_linear`` solves a system that its caller has equilibrated (each row
scaled to max magnitude at most 1) and numbered in the order to factorise
it in: the KKT step's reduced active-set system, which ``kkt_solver``
assembles from the matrix of ``fe_mesh.PairJacobian`` for a step that
``fgmres`` has declined.

It is factorised once, by a float64 LU, and its solution gets one
correction. The LU is tested by a condition estimate that reads neither
factor (a transposed solve of a fixed probe and a solve of its result), and
a singular verdict names a deficient row in the caller's numbering.
``singular_error`` is the one way a failed ``splu`` names its row, here and
in the forward LU of ``state_solver``.

``SPLU_OPTIONS`` are the SuperLU options of the package's two LUs: this
module's and the forward LU of ``state_solver``, which calls its own
``splu`` with them. Both factorise in float64. Beside the caller's order
and threshold pivoting they fix a small panel, which bounds the work arrays
SuperLU holds on top of the finished factors.

``refine`` is iterative refinement in float64 from a seed, a solve of a
nearby system in float32 or float64 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 12), with the one acceptance rule of the
package. It refines the forward solves of ``state_solver``, the KKT steps of
``kkt_solver`` whose I_gamma and I_crit cover every node and the
continuation steps of ``regpath``, each from a ``fe_mesh.SineSeed``, which
solves in float32 and factorises nothing, and the last two against the
products of ``fe_mesh.pair_operator``.

``fgmres`` is flexible GMRES from x = 0, right-preconditioned by the same
pair seed, which it calls as ``refine`` does (``_scaled_solve``), with the
same acceptance rule read off its residual estimate (see MAX_KRYLOV) and
one product of the true residual. It solves the KKT steps that refinement
cannot finish: those with nodes outside I_gamma and I_crit, and those whose
refinement declines. It also solves the continuation steps whose
refinement declines. When it declines, within MAX_KRYLOV iterations, the
KKT step and the continuation step fall through to ``solve_linear``. The
module holds nothing between calls.

``CsrMatrix.from_scipy`` returns a scipy CSR matrix in canonical form; A and
M are built with it.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import daxpy
from scipy.sparse.linalg import splu

__all__ = [
    "SparseError",
    "SingularMatrixError",
    "SPLU_OPTIONS",
    "CsrMatrix",
    "solve_linear",
    "singular_error",
    "refine",
    "fgmres",
]

# The SuperLU options of every LU in the package (``solve_linear``'s and the
# forward solves'): the matrix is factorised in the order it is given, with
# threshold partial pivoting, in panels of 4 columns. gstrf allocates its
# panel work arrays in proportion to rows x panel size and frees them only
# once the factors are complete, so at the peak they sit on top of the
# factors. On the reduced KKT matrix at m = 257, SuperLU's default panel of 20
# columns adds 45 MB and 4 columns add 13 MB, with the same fill and row
# pivots and a factor time within run-to-run spread; 2 and 1 columns are
# slower.
SPLU_OPTIONS = MappingProxyType(
    {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1, "panel_size": 4})

# Singular, after each row is scaled to max magnitude 1: a pivot below
# PIVOT_RTOL (``kkt_solver`` tests the pivots d_i p_i it divides by against
# it), or a probe solve with the float64 LU of a system k that grows by
# 1 / PIVOT_RTOL or more (max|z| / max|s| for z = k^-T s, or the same for
# the solve with k that follows; see _probe).
PIVOT_RTOL = 1e-14
# Refinement accepts a solution once a correction is at most REFINE_RTOL times
# it (max norms). When a correction is more than CONTRACTION times the one
# before, the corrections have reached their rounding floor, and it accepts
# only if that correction is at most SETTLE_RTOL times the solution; it also
# gives up after MAX_CORRECTIONS corrections. On example 2 the corrections
# from a float32 LU of the step levelled off at 1.4e-14 to 8.8e-14 of the
# solution.
REFINE_RTOL = 1e-14
SETTLE_RTOL = 1e-12
CONTRACTION = 0.5
MAX_CORRECTIONS = 30
# ``fgmres`` applies the same rule to the relative residual estimate of its
# Arnoldi relation, |g_(j+1)| / ||b||_2: it accepts once the estimate is at
# most REFINE_RTOL, or at most SETTLE_RTOL once it is more than CONTRACTION
# times the estimate STALL_WINDOW iterations before (the rounding floor), and
# gives up after MAX_KRYLOV iterations. Above SETTLE_RTOL a slow stretch is
# not a stall: preconditioned by a seed, the estimate can stay near its start
# for a few iterations and then fall by orders of magnitude in one. The
# solution x it accepts must also pass one product,
# ||b - k x||_2 <= SETTLE_RTOL ||b||_2.
STALL_WINDOW = 3
MAX_KRYLOV = 60


class SparseError(ValueError):
    """The exported base class of ``SingularMatrixError``; nothing in the
    package raises it directly."""


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


def solve_linear(k: sp.csc_matrix, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of k x = b for a row-equilibrated CSC matrix ``k``, from
    its float64 LU in the order it is given (no fill-reducing column
    ordering), with threshold partial pivoting, and one correction.
    ``rows[i]`` is the caller's number of row i.

    A failed ``splu``, or an LU that fails the probe test (``_probe``),
    raises SingularMatrixError naming the row as ``rows[i]``.
    """
    try:
        lu = splu(k, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise singular_error(k, rows) from exc
    z, regular = _probe(lu)
    if not regular:
        raise SingularMatrixError(int(rows[np.argmax(np.abs(z))]))
    x = lu.solve(b)
    x += lu.solve(b - k @ x)
    return x


def _probe(lu):
    """(z, whether ``lu`` passes): a condition estimate of the system k it
    factorises, which must be row-equilibrated.

    The test is a LINPACK-style condition estimate with a fixed probe s
    (Cline, Moler, Stewart and Wilkinson, SIAM J. Numer. Anal. 16, 1979;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 15): a transposed solve z = k^-T s, then y = k^-1 w with
    w = z / max|z|. The rows of k have max magnitude at most 1, so a growth
    max|z| / max|s| or max|y| / max|w| of at least 1 / PIVOT_RTOL, or a
    non-finite z or y, fails it. The second solve catches a singular system
    whose right null vector is nearly orthogonal to s, for which z stays
    moderate (two equal columns did so under some elimination orders). z
    points along the left null vector, which is nonzero only on the
    dependent rows whatever the elimination order, so its largest entry
    names the row. The test reads neither factor, so SuperLU never builds
    copies of L and U.
    """
    # random, so that no structured system is orthogonal to it (a constant
    # probe is to the null vector e_i - e_k of two equal columns) and z
    # points along the left null vector
    s = np.random.default_rng(20171).standard_normal(lu.shape[0])
    z = lu.solve(s, trans="T")
    z_max = np.max(np.abs(z))
    y_max = np.max(np.abs(lu.solve(z / z_max)))
    # written so that a NaN fails it
    return z, bool(z_max * PIVOT_RTOL < np.max(np.abs(s)) and y_max * PIVOT_RTOL < 1.0)


def singular_error(k, rows: np.ndarray) -> SingularMatrixError:
    """The SingularMatrixError of a matrix ``k`` whose ``splu`` has failed:
    the deficient row that ``_first_deficient_row`` finds, named as
    ``rows[i]``, the caller's number of row i of ``k``; -1 when it finds none."""
    row = _first_deficient_row(k)
    return SingularMatrixError(int(rows[row]) if row >= 0 else -1)


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


def refine(seed, k, b: np.ndarray):
    """Iterative refinement x <- x + seed^-1 (b - k x) in float64 from x = 0,
    with ``seed`` a solve of k or of a nearby matrix that has a ``dtype``
    (a ``fe_mesh.SineSeed`` solves in float32), and ``k`` the matrix or an
    operator with ``k @ x``; None when it declines. The first residual is b
    itself, so a refinement makes one product fewer than it makes
    corrections.

    Each residual is scaled by the power of two nearest above its max norm,
    which is exact, and cast to the precision of ``seed`` for the solve
    (``_scaled_solve``). The result is accepted by REFINE_RTOL, or by
    SETTLE_RTOL once the corrections stop contracting (see there). The
    forward solves of ``state_solver``, ``kkt_solver``'s steps refined from
    the pair seed and ``regpath.solve_regularized_kkt`` all use it, and
    ``fgmres`` applies the same rule to its residual estimate, so that is the
    one acceptance rule of the package.
    """
    x = np.zeros(len(b))
    prev = np.inf
    for i in range(MAX_CORRECTIONS):
        r = b - k @ x if i else b  # x = 0 on the first pass, so no product
        dx = _scaled_solve(seed, r)
        x += dx
        size, x_max = np.max(np.abs(dx)), np.max(np.abs(x))
        if size <= REFINE_RTOL * x_max:
            return x
        if not size <= CONTRACTION * prev:  # also ends on a NaN
            return x if size <= SETTLE_RTOL * x_max else None
        prev = size
    return None


def fgmres(seed, k, b: np.ndarray):
    """The solution of k x = b by flexible GMRES (Saad, SIAM J. Sci. Comput.
    14, 1993) from x = 0, right-preconditioned by ``seed``, which it calls as
    ``refine`` does; ``k`` is the matrix or an operator with ``k @ x``. None
    when it declines.

    Each iteration solves with the seed for the latest Arnoldi vector, makes
    one product with k, and orthogonalises the result against the basis by
    classical Gram-Schmidt run twice (CGS2; Giraud et al., Numer. Math. 101,
    2005). Givens rotations keep the least-squares problem upper triangular,
    so that its residual estimate is read off each iteration. There is no
    restart. The acceptance rule, with its one product of the true residual,
    is set out beside ``refine``'s (see MAX_KRYLOV). The basis, the Arnoldi
    vectors and their seed solves, grows by one vector of each per iteration
    and is dropped before that product, so the solve holds about
    2 iterations + 4 vectors of len(b) at its peak, and nothing once it
    returns.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros(len(b))
    basis, directions = [b / beta], []  # the Arnoldi vectors v_j, and seed^-1 v_j
    columns, rotations = [], []  # the rotated Hessenberg columns, and (c, s) of each
    g = [beta]  # the rotated beta e_1; |g[-1]| is the residual estimate
    estimates = [1.0]  # relative
    for j in range(MAX_KRYLOV):
        directions.append(_scaled_solve(seed, basis[j]))
        w = k @ directions[j]
        h = np.zeros(j + 1)
        for _ in range(2):
            coef = [v @ w for v in basis]
            for c_i, v in zip(coef, basis):
                w = daxpy(v, w, a=-c_i)  # in place, with no temporary
            h += coef
        w_norm = float(np.linalg.norm(w))
        h = [*h.tolist(), w_norm]
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = float(np.hypot(h[j], h[j + 1]))
        if not rho > 0.0:  # singular on the Krylov space, or not finite
            return None
        c, s = h[j] / rho, h[j + 1] / rho
        rotations.append((c, s))
        columns.append(h[:j] + [rho])
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        estimates.append(abs(g_next) / beta)
        stalled = j + 1 >= STALL_WINDOW and (
            estimates[-1] > CONTRACTION * estimates[-1 - STALL_WINDOW])
        if estimates[-1] <= REFINE_RTOL or (stalled and estimates[-1] <= SETTLE_RTOL):
            break
        w /= w_norm
        basis.append(w)
    else:
        return None
    del basis, w
    tri = np.zeros((len(columns), len(columns)))
    for i, col in enumerate(columns):
        tri[:i + 1, i] = col
    y = solve_triangular(tri, g[:-1])
    x = np.zeros(len(b))
    for y_i, z in zip(y, directions):
        x += y_i * z
    del directions
    return x if np.linalg.norm(b - k @ x) <= SETTLE_RTOL * beta else None


def _scaled_solve(seed, r: np.ndarray) -> np.ndarray:
    """seed^-1 r in float64 from a solve in ``seed.dtype``: r is scaled by
    the power of two nearest above its max norm, which is exact, and cast to
    that precision. A float32 seed takes float32 right-hand sides, and the
    scaling keeps small residuals clear of float32's underflow."""
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(r)))[1])
    return scale * seed.solve((r / scale).astype(seed.dtype, copy=False))  # float64
