"""Semi-smooth Newton solver for the discrete limit optimality system.

Unknowns are the stacked coefficient vectors (y, p, chi):

    A y + D max(0,y) + (1/alpha) M p = M f
    A p + D (chi o p)                = M (y - y_d)
    D (y - prox_gamma(y + gamma chi)) = 0

The third equation is the prox reformulation of the pointwise inclusion
chi_i in the convex subdifferential of max at y_i; it is scaled by the
lumped mass matrix for uniform residual scaling. Nodes where p_i ~ 0 and
y_i + gamma chi_i in [0, gamma] (I_crit) make the Newton matrix singular;
their chi components are frozen for the step (active-set fix).
``solve_kkt`` runs ``state_solver.newton`` on the stacked vector.

Every prox row of the 3n Newton matrix has a single nonzero, so no step
forms that matrix (``_newton_step``). With S = I_gamma u I_crit and N the
other nodes, the prox rows fix dchi_i = r3_i / (gamma d_i) on I_gamma,
dchi_i = 0 on I_crit and dy_i = -r3_i / d_i on N; D p dchi on S moves to
the right-hand side. What is left is the primal-dual active-set system
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002) in dy on S and dp
on every node: the n state rows and the adjoint rows on S of the pair
system [[A + D 1{y>0}, M / alpha], [-M, A + D chi]]. dchi_i on N follows
last from adjoint row n + i, through the pivot d_i p_i.

When N is empty that system is the whole pair system, K0 = [[A, M / alpha],
[-M, A]] up to the diagonals D 1{y>0} and D chi; at y = p = chi = 0 every
node is critical, so the first step from that start is one. Its [dy; dp]
is refined by ``sparse_core.refine`` from the pair ``fe_mesh.SineSeed`` of
the call, which solves K0 up to one small term by the sine transform of the
grid in float32, against the products of ``fe_mesh.pair_operator`` from A,
M and the two diagonals in float64. Refinement makes up that term, the
diagonals and the float32 rounding.

A step with nodes in N first gets the pivot test on d_i p_i: adjoint row
n + i is scaled by its largest entry in the 3n matrix, the pivot among
them, taken from A, M and the diagonals with no layout. A pivot d_i p_i on
N below ``sparse_core.PIVOT_RTOL`` after that scaling raises
SingularMatrixError naming adjoint row n + i, for the smallest such i,
before any solve. Such a step, and a step whose refinement declines, is
then solved by ``sparse_core.fgmres`` from the same pair seed, on the 2n
pair system in which adjoint row n + i, for each i in N, is replaced by
A_ii e_i with right-hand side A_ii dy_i: the prox row, scaled like the rows
around it.

Only a step that FGMRES declines is factorised. It takes the pair system
from the call's ``fe_mesh.PairJacobian`` (the layout ``regpath``
factorises too), node by node in the nested-dissection order
``FeSpace.nd_order``, laid out by the first such step and refilled in place
with D 1{y>0}, D chi and 0 by each. Each row is scaled by its largest entry
in the 3n matrix, as in the pivot test. The state rows and the adjoint rows
on S, in the columns dy on S and dp, are handed to
``sparse_core.solve_linear``, whose one float64 LU names a deficient row in
the same 3n numbering (state row i as i, adjoint row i as n + i). A step
refined from the seed or solved by FGMRES gives no verdict. However [dy; dp]
was solved, dchi on N follows from the adjoint rows of the pair system, in
block order. No LU outlives its step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .fe_mesh import FeFunction, FeOperators, PairJacobian, SineSeed, pair_operator
from .nonsmooth import max0, prox, prox_active
from .sparse_core import PIVOT_RTOL, SingularMatrixError, fgmres, refine, solve_linear
from .state_solver import newton

__all__ = [
    "KktPoint",
    "KktConfig",
    "IndexSets",
    "ProblemData",
    "residual",
    "index_sets",
    "solve_kkt",
    "recover_control",
    "zero_point",
]

# Newton stops once the Euclidean residual norm is at most TOL_RESIDUAL, or
# reports failure after MAX_ITER steps
TOL_RESIDUAL = 1e-12
MAX_ITER = 25
# |p_i| at or below this marks an inactive node as critical: its chi
# column in the adjoint row vanishes, so chi_i is frozen for the step
P_CRITICAL_TOL = 1e-14


@dataclass(frozen=True)
class KktPoint:
    y: FeFunction
    p: FeFunction
    chi: FeFunction

    def __post_init__(self):
        if not (self.y.space is self.p.space is self.chi.space):
            raise ValueError("KKT point components must share one space")


@dataclass(frozen=True)
class KktConfig:
    alpha: float
    gamma: float

    def __post_init__(self):
        if any(isinstance(v, bool) or not (np.isfinite(v) and v > 0)
               for v in (self.alpha, self.gamma)):
            raise ValueError("all KKT configuration values must be positive finite numbers")


@dataclass(frozen=True)
class IndexSets:
    i_plus: np.ndarray   # {i : y_i > 0}
    i_gamma: np.ndarray  # {i : y_i + gamma chi_i not in [0, gamma]}
    i_crit: np.ndarray   # {i : |p_i| <= tol and y_i + gamma chi_i in [0, gamma]}


@dataclass(frozen=True)
class ProblemData:
    ops: FeOperators
    f: FeFunction
    y_d: FeFunction
    config: KktConfig

    def __post_init__(self):
        if not (self.f.space is self.ops.space and self.y_d.space is self.ops.space):
            raise ValueError("data functions must live on the operator space")
        if not (np.all(np.isfinite(self.f.coeffs)) and np.all(np.isfinite(self.y_d.coeffs))):
            raise ValueError("data functions must be finite")


def zero_point(ops: FeOperators) -> KktPoint:
    s = ops.space
    return KktPoint(s.zero(), s.zero(), s.zero())


def residual(data: ProblemData, pt: KktPoint) -> np.ndarray:
    """Stacked residual (3n,) of the limit optimality system."""
    ops = data.ops
    a, m = ops.A, ops.M
    d = ops.d
    alpha, gamma = data.config.alpha, data.config.gamma
    y, p, chi = pt.y.coeffs, pt.p.coeffs, pt.chi.coeffs

    r1 = a @ y + d * max0(y) + (1.0 / alpha) * (m @ p) - m @ data.f.coeffs
    r2 = a @ p + d * (chi * p) - m @ (y - data.y_d.coeffs)
    r3 = d * (y - prox(gamma, y + gamma * chi))
    return np.concatenate([r1, r2, r3])


def index_sets(pt: KktPoint, config: KktConfig) -> IndexSets:
    y, p, chi = pt.y.coeffs, pt.p.coeffs, pt.chi.coeffs
    gamma = config.gamma
    w = y + gamma * chi
    active = prox_active(gamma, w)
    inactive = ~active
    return IndexSets(
        i_plus=np.flatnonzero(y > 0),
        i_gamma=np.flatnonzero(active),
        i_crit=np.flatnonzero(inactive & (np.abs(p) <= P_CRITICAL_TOL)),
    )


def solve_kkt(data: ProblemData, init: Optional[KktPoint] = None):
    """Undamped semi-smooth Newton on the stacked system; no globalization.

    Non-convergence within the iteration cap and singular Newton systems
    are reported, not repaired. A non-finite ``init`` raises ValueError.
    """
    ops = data.ops
    n = ops.space.n
    cfg = data.config
    pt = init if init is not None else zero_point(ops)
    x0 = np.concatenate([pt.y.coeffs, pt.p.coeffs, pt.chi.coeffs])
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")

    def point(x):
        return KktPoint(ops.space.function(x[:n]), ops.space.function(x[n:2 * n]),
                        ops.space.function(x[2 * n:]))

    seed = SineSeed(ops.space, cfg.alpha)
    jacobian = PairJacobian(ops, cfg.alpha)  # laid out by the first step that factorises

    def step(x, r):
        pt = point(x)
        return _newton_step(data, pt, index_sets(pt, cfg), r, seed, jacobian)

    try:
        x, report = newton(x0, lambda x: residual(data, point(x)), step,
                           TOL_RESIDUAL, MAX_ITER)
    finally:
        # nothing outlives the call, even from a traceback's frame
        del seed, jacobian
    return point(x), report


def _newton_step(data: ProblemData, pt: KktPoint, sets: IndexSets, r: np.ndarray,
                 seed: SineSeed, jacobian: PairJacobian) -> np.ndarray:
    """The Newton step [dy; dp; dchi] at ``pt`` for the residual ``r``, as the
    module docstring sets out, with no 3n matrix. ``jacobian`` is the call's
    ``PairJacobian``, which only a step that FGMRES leaves unsolved lays out
    or refills. A deficient pivot d_i p_i, or a singular verdict of
    ``solve_linear``, raises SingularMatrixError."""
    ops = data.ops
    d = ops.d
    n = len(d)
    cfg = data.config
    free = np.ones(n, dtype=bool)  # N: the inactive nodes outside I_crit
    free[sets.i_gamma] = free[sets.i_crit] = False
    g, rest = sets.i_gamma, np.flatnonzero(free)
    dchi = np.zeros(n)
    dchi[g] = r[2 * n + g] / (cfg.gamma * d[g])
    d_plus = np.zeros(n)
    d_plus[sets.i_plus] = d[sets.i_plus]
    d_chi = d * pt.chi.coeffs
    d_p = d * pt.p.coeffs
    if len(rest):
        # adjoint row n + i scaled by its largest entry in the 3n matrix, which
        # also holds the pivot d_i p_i
        piv = d_p * (1.0 / _adjoint_row_scale(ops, d_chi, d_p))
        bad = free & (np.abs(piv) < PIVOT_RTOL)
        if bad.any():
            raise SingularMatrixError(n + int(np.flatnonzero(bad)[0]))
    rhs = -r[:2 * n]
    rhs[n:] -= d_p * dchi
    pair = pair_operator(ops, cfg.alpha, d_plus, d_chi)
    dyp = None if len(rest) else refine(seed, pair, rhs)
    if dyp is None:
        # adjoint row n + i on N becomes A_ii dy_i = A_ii (-r3_i / d_i), the
        # prox row scaled like the rows around it
        a_rest = ops.A.diagonal()[rest]
        rhs[n + rest] = a_rest * (-r[2 * n + rest] / d[rest])

        def fixed(z):
            kz = pair @ z
            kz[n + rest] = a_rest * z[rest]
            return kz

        dyp = fgmres(seed, LinearOperator(pair.shape, matvec=fixed, dtype=float), rhs)
    if dyp is None:
        jac = jacobian.at(d_plus, d_chi)  # its (p, y) diagonal is -M_ii
        order, nd = jacobian.order, ops.space.nd_order
        # each row is scaled by its largest entry in the 3n matrix, where adjoint
        # row n + i also holds the pivot d_i p_i, which has passed its test above
        scale = np.maximum.reduceat(np.abs(jac.data), jac.indptr[:-1])
        scale[1::2] = np.maximum(scale[1::2], np.abs(d_p[nd]))
        inv = 1.0 / scale
        piv = d_p[nd] * inv[1::2]
        free_k = free[nd]  # N, by position in nd

        eq = sp.csr_matrix((jac.data * np.repeat(inv, np.diff(jac.indptr)), jac.indices,
                            jac.indptr), shape=jac.shape)
        # dy_i on N from its prox row d_i dy_i = -r3_i scaled like every row, by
        # its largest entry (d_i (1 / d_i) is not 1 at every h); the fixed terms
        # are moved to the right-hand side in the scaled rows
        dy = np.zeros(n)
        dy[rest] = (-r[2 * n + rest] / d[rest]) / (d[rest] * (1.0 / d[rest]))
        x = np.concatenate([dy, np.zeros(n)])[order]  # [dy; dp] in pair order
        b = -r[:2 * n][order] / scale
        moved = eq @ x  # the fixed dy_N and D p dchi_S
        moved[1::2] += piv * dchi[nd]
        # every state row and the adjoint rows on S; the columns dy on S and every dp
        every = np.ones(n, dtype=bool)
        rows = np.flatnonzero(np.column_stack([every, ~free_k]).ravel())
        cols = np.flatnonzero(np.column_stack([~free_k, every]).ravel())
        eq = eq[rows]  # one copy of the system at a time
        eq = eq[:, cols]
        k = eq.tocsc()
        del eq
        x[cols] = solve_linear(k, order[rows], (b - moved)[rows])
        dyp = np.empty(2 * n)
        dyp[order] = x
    if len(rest):  # dchi on N from the adjoint rows, through the pivots d_i p_i
        dchi[rest] = (-r[n + rest] - (pair @ dyp)[n + rest]) / d_p[rest]
    return np.concatenate([dyp, dchi])


def _adjoint_row_scale(ops: FeOperators, d_chi: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """The largest magnitude in adjoint row n + i of the 3n Newton matrix, by
    node, from A, M and the diagonals: that of the off-diagonal A_ij, of
    A_ii + d_i chi_i, of M_ij and of the pivot d_i p_i. A maximum is exact,
    so it is the scale the laid-out pair Jacobian gives that row."""
    a, m = ops.A, ops.M
    n = len(d_p)
    off = np.abs(a.data)
    off[a.indices == np.repeat(np.arange(n), np.diff(a.indptr))] = 0.0
    scale = np.maximum(np.maximum.reduceat(off, a.indptr[:-1]), np.abs(a.diagonal() + d_chi))
    scale = np.maximum(scale, np.maximum.reduceat(np.abs(m.data), m.indptr[:-1]))
    return np.maximum(scale, np.abs(d_p))


def recover_control(pt: KktPoint, alpha: float) -> FeFunction:
    """Eliminated gradient equation p + alpha u = 0."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return pt.y.space.function(-pt.p.coeffs / alpha)
