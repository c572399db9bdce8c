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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import sparse_core
from .fe_mesh import FeFunction, FeOperators
from .nonsmooth import max0, prox, prox_active
from .sparse_core import assemble_block
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
    tol_residual: float = 1e-12
    max_iter: int = 25

    def __post_init__(self):
        values = (self.alpha, self.gamma, self.tol_residual)
        if self.max_iter <= 0 or any(isinstance(v, bool) or not (np.isfinite(v) and v > 0)
                                     for v in values):
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


def newton_matrix(data: ProblemData, pt: KktPoint, sets: IndexSets) -> sp.csr_matrix:
    """3n x 3n generalized Jacobian of the stacked residual."""
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    d = ops.d
    alpha, gamma = data.config.alpha, data.config.gamma

    ind_plus = np.zeros(n)
    ind_plus[sets.i_plus] = 1.0
    ind_gam = np.zeros(n)
    ind_gam[sets.i_gamma] = 1.0

    return assemble_block([
        [a + sp.diags(d * ind_plus), (1.0 / alpha) * m, None],
        [-1.0 * m, a + sp.diags(d * pt.chi.coeffs), sp.diags(d * pt.p.coeffs, format="csr")],
        [sp.diags(d * (1.0 - ind_gam), format="csr"), None,
         -gamma * sp.diags(d * ind_gam, format="csr")],
    ])


def apply_active_set_fix(matrix: sp.csr_matrix, rhs: np.ndarray, sets: IndexSets):
    """Freeze the critical chi components for this Newton step.

    The prox-equation row of each critical node is replaced by the unit
    row on its chi unknown (rhs 0), so the step leaves chi_i unchanged
    while its column contributions in the first two block rows remain.
    """
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

    def step(x, r):
        pt = point(x)
        sets = index_sets(pt, cfg)
        jac, rhs = apply_active_set_fix(newton_matrix(data, pt, sets), -r, sets)
        return sparse_core.solve_linear(jac, rhs)

    x, report = newton(x0, lambda x: residual(data, point(x)), step,
                       cfg.tol_residual, cfg.max_iter)
    return point(x), report


def recover_control(pt: KktPoint, alpha: float) -> FeFunction:
    """Eliminated gradient equation p + alpha u = 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return pt.y.space.function(-pt.p.coeffs / alpha)
