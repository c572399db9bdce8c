"""Semi-smooth Newton solver for the discrete limit optimality system.

Unknowns are the stacked coefficient vectors (y, p, chi):

    A y + D max(0,y) + (1/alpha) M p = M f
    A p + D (chi o p)                = M (y - y_d)
    D (y - prox_gamma(y + gamma chi)) = 0

The third equation is the prox reformulation of the pointwise inclusion
chi_i in the convex subdifferential of max at y_i; it is scaled by the
lumped mass matrix for uniform residual scaling. Nodes where p_i ~ 0 and
y_i + gamma chi_i in [0, gamma] make the Newton matrix singular; their
chi components are frozen for the step (active-set fix).
``solve_kkt`` runs ``state_solver.newton`` on the stacked vector.

Every prox row of the Newton matrix has a single nonzero, so a step fixes
chi_i on I_gamma and on critical nodes and y_i on the other inactive nodes;
there chi_i follows last from adjoint row n + i, through the pivot d_i p_i.
What is left is the primal-dual active-set system (Hintermueller, Ito &
Kunisch, SIAM J. Optim. 13, 2002) in dy on I_gamma and I_crit and dp on
every node, of size at most 2n.

A step whose I_gamma and I_crit cover every node fixes every chi_i, and its
system is K0 = [[A, M / alpha], [-M, A]] up to the diagonals D 1{y>0} and
D chi; at y = p = chi = 0 every node is critical, so the first step from
that start is one. ``_seed_step`` solves such a step with no 3n matrix:
dchi from the prox rows, D p dchi moved to the right-hand side, and
[dy; dp] refined by ``sparse_core.refine`` from the pair ``fe_mesh.SineSeed``
of the call, which solves K0 up to one small term by the sine transform of
the grid, against the products of ``fe_mesh.pair_operator`` from A, M and
the two diagonals. Refinement makes up that term and the diagonals.

Any other step, and a step whose refinement declines, is solved from the 3n
Newton matrix by ``sparse_core.solve_linear``, which reduces it to the
active-set system in the nested-dissection order ``FeSpace.nd_order`` and
factorises that afresh. The first such step of a call lays out the matrix's
pattern (``_newton_layout``, one ``assemble_block``): the blocks A, M / alpha
and -M and every entry of the five diagonals that change between steps,
D 1{y>0}, D chi, D p, D (1 - 1_gamma) and -gamma D 1_gamma, a zero one stored
as an explicit zero, with their positions in its data. Each such step writes
through those positions only: it refills the diagonals (``newton_matrix``)
and writes the unit rows of the critical nodes over their prox rows
(``apply_active_set_fix``). Since ``solve_linear``'s working copy drops
explicit zeros, the matrix it factorises equals, entry for entry, one built
afresh. A singular step is reported by ``solve_linear``: by its test of the
singleton pivots, such as a deferred d_i p_i that names adjoint row n + i,
or, on the reduced system, by the float64 LU alone. A seed step gives no
verdict: its pivots -gamma d_i and 1 are never small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import sparse_core
from .fe_mesh import FeFunction, FeOperators, SineSeed, pair_operator
from .nonsmooth import max0, prox, prox_active
from .sparse_core import assemble_block, entry_positions, refine
from .state_solver import newton

__all__ = [
    "KktPoint",
    "KktConfig",
    "IndexSets",
    "ProblemData",
    "residual",
    "index_sets",
    "newton_matrix",
    "apply_active_set_fix",
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


def _newton_layout(data: ProblemData):
    """The stored pattern of every Newton matrix of ``data``, laid out once
    by ``assemble_block`` as [[A, M / alpha, 0], [-M, A, I], [I, 0, I]]: the
    identity blocks make it store every entry of the five diagonals that
    change between steps. Returns the matrix with the positions in its data
    of the diagonals of its (1,1), (2,2), (2,3), (3,1) and (3,3) blocks, node
    by node, from ``entry_positions`` (SparseError unless each is stored
    once), and the diagonal of A, which the first two are refilled from."""
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    eye = sp.identity(n, format="csr")
    jac = assemble_block([[a, (1.0 / data.config.alpha) * m, None],
                          [-1.0 * m, a, eye],
                          [eye, None, eye]])
    i = np.arange(n)
    blocks = ((0, 0), (n, n), (n, 2 * n), (2 * n, 0), (2 * n, 2 * n))
    return (jac, *(entry_positions(jac, r + i, c + i) for r, c in blocks), a.diagonal())


def newton_matrix(data: ProblemData, pt: KktPoint, sets: IndexSets, *,
                  _layout=None) -> sp.csr_matrix:
    """3n x 3n generalized Jacobian of the stacked residual

        [[A + D 1{y>0},  M / alpha,     0               ],
         [-M,            A + D chi,     D p             ],
         [D (1 - 1_gam), 0,             -gamma D 1_gam  ]]

    in the pattern of ``_newton_layout``: every entry of the five diagonal
    blocks that vary is stored, a zero one as an explicit zero (which
    ``solve_linear``'s working copy drops). ``_layout`` is ``solve_kkt``'s one
    layout for the whole solve, whose five diagonals are refilled in place
    and returned; None lays out a new matrix. Either way no entry of an
    earlier step survives, the critical prox rows of ``apply_active_set_fix``
    included: a prox row stores only its (3,1) and (3,3) entries.
    """
    jac, yy, pp, pc, cy, cc, a_diag = _layout or _newton_layout(data)
    d = data.ops.d
    n = len(d)
    gamma = data.config.gamma

    ind_plus = np.zeros(n)
    ind_plus[sets.i_plus] = 1.0
    ind_gam = np.zeros(n)
    ind_gam[sets.i_gamma] = 1.0

    jac.data[yy] = a_diag + d * ind_plus
    jac.data[pp] = a_diag + d * pt.chi.coeffs
    jac.data[pc] = d * pt.p.coeffs
    jac.data[cy] = d * (1.0 - ind_gam)
    jac.data[cc] = -gamma * (d * ind_gam)
    return jac


def apply_active_set_fix(layout, rhs: np.ndarray, sets: IndexSets):
    """Freeze the critical chi components for this Newton step.

    ``layout`` is a ``_newton_layout`` that ``newton_matrix`` has filled for
    this step. The prox row of each critical node becomes, in place, the
    unit row on its chi unknown (rhs 0): through the layout's positions its
    (3,1) entry is written 0 and its (3,3) entry 1, the only two it stores.
    So the step leaves chi_i unchanged while its column contributions in the
    first two block rows remain. Every other row is left as it is. Returns
    the matrix and a copy of ``rhs``, or ``rhs`` itself when no node is
    critical.
    """
    jac, _, _, _, cy, cc, _ = layout
    if len(sets.i_crit) == 0:
        return jac, rhs
    jac.data[cy[sets.i_crit]] = 0.0
    jac.data[cc[sets.i_crit]] = 1.0
    rhs = rhs.copy()
    rhs[2 * len(cy) + sets.i_crit] = 0.0
    return jac, rhs


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

    nd = ops.space.nd_order
    order = np.stack([nd, n + nd, 2 * n + nd], axis=1).ravel()  # (y_i, p_i, chi_i) by node

    seed = SineSeed(ops.space, cfg.alpha)
    layout = []  # the 3n layout, made by the first step that needs it and refilled by each

    def step(x, r):
        pt = point(x)
        sets = index_sets(pt, cfg)
        if len(sets.i_gamma) + len(sets.i_crit) == n:
            dx = _seed_step(data, pt, sets, r, seed)
            if dx is not None:
                return dx
        if not layout:
            layout.append(_newton_layout(data))
        newton_matrix(data, pt, sets, _layout=layout[0])
        jac, rhs = apply_active_set_fix(layout[0], -r, sets)
        return sparse_core.solve_linear(jac, rhs, order)

    try:
        x, report = newton(x0, lambda x: residual(data, point(x)), step,
                           TOL_RESIDUAL, MAX_ITER)
    finally:
        # nothing outlives the call, even from a traceback's frame
        del seed
        layout.clear()
    return point(x), report


def _seed_step(data: ProblemData, pt: KktPoint, sets: IndexSets, r: np.ndarray,
               seed: SineSeed) -> Optional[np.ndarray]:
    """The Newton step at ``pt``, whose I_gamma and I_crit cover every node,
    for the residual ``r``, with no 3n matrix; None when ``refine`` declines.

    The prox rows fix every chi_i: dchi_i = r3_i / (gamma d_i) on I_gamma and
    0 on I_crit. D p dchi then moves to the right-hand side, and [dy; dp]
    solves the pair system [[A + D 1{y>0}, M / alpha], [-M, A + D chi]],
    refined from the pair ``seed`` with its products from ``pair_operator``.
    """
    d = data.ops.d
    n = len(d)
    cfg = data.config
    g = sets.i_gamma
    dchi = np.zeros(n)
    dchi[g] = r[2 * n + g] / (cfg.gamma * d[g])
    d_plus = np.zeros(n)
    d_plus[sets.i_plus] = d[sets.i_plus]
    rhs = -r[:2 * n]
    rhs[n:] -= (d * pt.p.coeffs) * dchi
    dyp = refine(seed, pair_operator(data.ops, cfg.alpha, d_plus, d * pt.chi.coeffs), rhs)
    return None if dyp is None else np.concatenate([dyp, dchi])


def recover_control(pt: KktPoint, alpha: float) -> FeFunction:
    """Eliminated gradient equation p + alpha u = 0."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return pt.y.space.function(-pt.p.coeffs / alpha)
