"""Diagnostics grading a candidate point against the stationarity hierarchy.

From weakest to strongest: multiplier admissibility, the limit-system
residual, the adjoint sign condition on the zero set of the state, and a
sampled purely primal condition (directional derivatives of the reduced
objective must be nonnegative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kkt_solver
from .fe_mesh import FeFunction
from .kkt_solver import KktPoint, ProblemData, recover_control
from .state_solver import DEFAULT_ZERO_TOL, StateProblem, directional_derivative, solve_state

__all__ = [
    "ChiAdmissibilityReport",
    "StrongSignReport",
    "PrimalStationarityReport",
    "check_chi_admissible",
    "check_bouligand_residual",
    "check_strong_sign",
    "check_primal_stationarity",
    "eval_reduced_objective",
    "sample_directions",
]


@dataclass
class ChiAdmissibilityReport:
    passed: bool
    n_nodes: int
    n_violations: int
    violating_nodes: list[int] = field(default_factory=list)
    max_deviation: float = 0.0

    def to_dict(self):
        return {
            "check": "chi_admissible",
            "passed": self.passed,
            "n_nodes": self.n_nodes,
            "n_violations": self.n_violations,
            "max_deviation": self.max_deviation,
        }


def check_chi_admissible(y: FeFunction, chi: FeFunction,
                         zero_tol: float = DEFAULT_ZERO_TOL,
                         chi_tol: float = 0.0) -> ChiAdmissibilityReport:
    """Per-node membership of chi in the convex subdifferential of max at y.

    Nodes with y above the zero band need chi = 1, below it chi = 0, and
    inside it chi in [0, 1]; chi_tol relaxes the comparisons for iterates
    that satisfy the prox equation only up to a residual.
    """
    if y.space is not chi.space:
        raise ValueError("y and chi must share one space")
    yv, cv = y.coeffs, chi.coeffs
    pos = yv > zero_tol
    neg = yv < -zero_tol
    band = ~(pos | neg)
    dev = np.where(pos, np.abs(cv - 1.0),
                   np.where(neg, np.abs(cv),
                            np.maximum(np.maximum(-cv, cv - 1.0), 0.0)))
    bad = dev > chi_tol
    return ChiAdmissibilityReport(
        passed=not bad.any(),
        n_nodes=y.space.n,
        n_violations=int(bad.sum()),
        violating_nodes=list(np.flatnonzero(bad)[:20]),
        max_deviation=float(dev.max()) if len(dev) else 0.0,
    )


def check_bouligand_residual(data: ProblemData, pt: KktPoint) -> float:
    """Euclidean norm of the full limit-optimality-system residual."""
    return float(np.linalg.norm(kkt_solver.residual(data, pt)))


@dataclass
class StrongSignReport:
    passed: bool
    n_band_nodes: int
    n_violations: int
    max_violation: float
    violating_fraction: float

    def to_dict(self):
        return {
            "check": "strong_sign",
            "passed": self.passed,
            "n_band_nodes": self.n_band_nodes,
            "n_violations": self.n_violations,
            "max_violation": self.max_violation,
        }


def check_strong_sign(y: FeFunction, p: FeFunction,
                      zero_tol: float = DEFAULT_ZERO_TOL,
                      sign_tol: float = 1e-10) -> StrongSignReport:
    """Adjoint sign condition p <= 0 on the zero band of the state."""
    band = np.abs(y.coeffs) <= zero_tol
    pv = p.coeffs[band]
    viol = pv > sign_tol
    nb = int(band.sum())
    return StrongSignReport(
        passed=not viol.any(),
        n_band_nodes=nb,
        n_violations=int(viol.sum()),
        max_violation=float(np.max(pv - sign_tol)) if len(pv) else 0.0,
        violating_fraction=float(viol.sum()) / nb if nb else 0.0,
    )


@dataclass
class PrimalStationarityReport:
    passed: bool
    min_value: float
    values: list[float] = field(default_factory=list)

    def to_dict(self):
        return {
            "check": "primal_stationarity",
            "passed": self.passed,
            "min_value": self.min_value,
            "n_directions": len(self.values),
        }


def check_primal_stationarity(data: ProblemData, pt: KktPoint,
                              directions: Sequence[FeFunction],
                              tol: float = 1e-8,
                              zero_tol: float = DEFAULT_ZERO_TOL) -> PrimalStationarityReport:
    """Sampled primal condition: the directional derivative of the reduced
    objective must be >= -tol along every sampled direction and its negative."""
    ops = data.ops
    m = ops.M
    prob = StateProblem(ops, data.f)
    u = recover_control(pt, data.config.alpha)
    misfit = m @ (pt.y.coeffs - data.y_d.coeffs)
    values = []
    for h in directions:
        for sgn in (1.0, -1.0):
            hs = ops.space.function(sgn * h.coeffs)
            delta, rep = directional_derivative(prob, pt.y, hs, zero_tol)
            if not rep.converged:
                raise RuntimeError("directional derivative solve failed")
            val = float(misfit @ delta.coeffs
                        + data.config.alpha * (u.coeffs @ (m @ hs.coeffs)))
            values.append(val)
    min_value = min(values) if values else 0.0
    return PrimalStationarityReport(passed=min_value >= -tol,
                                    min_value=min_value, values=values)


def eval_reduced_objective(data: ProblemData, u: FeFunction) -> float:
    """Tracking objective evaluated at the state solved for u."""
    prob = StateProblem(data.ops, data.f)
    y, rep = solve_state(prob, u)
    if not rep.converged:
        raise RuntimeError("state solve failed in objective evaluation")
    m = data.ops.M
    diff = y.coeffs - data.y_d.coeffs
    return float(0.5 * diff @ (m @ diff)
                 + 0.5 * data.config.alpha * u.coeffs @ (m @ u.coeffs))


def sample_directions(space, n_random: int = 20, seed: int = 20240817) -> list[FeFunction]:
    """Fixed-seed random directions plus a few structured ones."""
    rng = np.random.default_rng(seed)
    dirs = [space.function(rng.standard_normal(space.n)) for _ in range(n_random)]
    dirs.append(space.function(np.ones(space.n)))
    for k in range(4):
        e = np.zeros(space.n)
        e[(k * space.n) // 4] = 1.0
        dirs.append(space.function(e))
    return dirs
