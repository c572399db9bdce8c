"""Smoothed optimality system and continuation in the smoothing width.

For a fixed smoothing width eps the coupled first-order system reads

    A y + D max_eps(y) + (1/alpha) M p = M f
    A p + D (max_eps'(y) o p)          = M (y - y_d)

Driving eps -> 0 with warm starts recovers a solution of the limit
system, with the multiplier extracted as chi = max_eps'(y). Each fixed-eps
solve runs ``state_solver.newton`` on the stacked vector (y, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import kkt_solver
from .kkt_solver import KktPoint, ProblemData
from .fe_mesh import FeFunction
from .nonsmooth import (
    SmoothedMaxParams,
    smoothed_max,
    smoothed_max_prime,
    smoothed_max_second,
)
from .sparse_core import SingularMatrixError
from .state_solver import (NewtonReport, StateProblem, m_norm, newton, solve_state,
                           solve_state_regularized)

__all__ = [
    "RegPathConfig",
    "PathReport",
    "RateReport",
    "solve_regularized_kkt",
    "run_path",
    "verify_lemma_rate",
]


@dataclass(frozen=True)
class RegPathConfig:
    eps_schedule: tuple
    tol_residual: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        sched = tuple(self.eps_schedule)
        if not sched:
            raise ValueError("eps schedule must be nonempty")
        if any(isinstance(e, bool) or not (np.isfinite(e) and e > 0) for e in sched) or any(
                sched[k + 1] >= sched[k] for k in range(len(sched) - 1)):
            raise ValueError("eps schedule must hold finite, positive, strictly decreasing numbers")
        object.__setattr__(self, "eps_schedule", sched)


def solve_regularized_kkt(data: ProblemData, eps: float,
                          init: Optional[tuple[np.ndarray, np.ndarray]] = None,
                          tol_residual: float = 1e-12, max_iter: int = 50):
    """Newton solve of the smoothed coupled system in (y, p); a non-finite
    ``init`` raises ValueError."""
    params = SmoothedMaxParams(eps)
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    d = ops.d
    alpha = data.config.alpha
    fvec = m @ data.f.coeffs
    ydvec = data.y_d.coeffs

    def residual(x):
        y, p = x[:n], x[n:]
        r1 = a @ y + d * smoothed_max(params, y) + (m @ p) / alpha - fvec
        r2 = a @ p + d * (smoothed_max_prime(params, y) * p) - m @ (y - ydvec)
        return np.concatenate([r1, r2])

    def step(x, r):
        y, p = x[:n], x[n:]
        j11 = a + sp.diags(d * smoothed_max_prime(params, y))
        j21 = sp.diags(d * smoothed_max_second(params, y) * p) - m
        jac = sp.bmat([[j11, m / alpha], [j21, j11]], format="csc")
        try:
            lu = splu(jac, permc_spec="COLAMD")
        except RuntimeError as exc:
            raise SingularMatrixError(-1) from exc
        return lu.solve(-r)

    x0 = np.zeros(2 * n) if init is None else np.concatenate(init)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    x, report = newton(x0, residual, step, tol_residual, max_iter)
    return (ops.space.function(x[:n]), ops.space.function(x[n:])), report


@dataclass
class PathReport:
    eps_values: list[float]
    inner_reports: list[NewtonReport]
    limit_residuals: list[float]
    aborted: bool = False
    failure_reason: Optional[str] = None


def run_path(data: ProblemData, cfg: RegPathConfig):
    """Continuation over the eps schedule; each solve warm-starts from the
    previous iterate. Returns the final iterate packaged as a KKT point
    (chi = max_eps'(y) at the smallest eps) plus per-eps telemetry."""
    ops = data.ops
    report = PathReport([], [], [])
    init = None
    y = p = None
    for eps in cfg.eps_schedule:
        (yf, pf), rep = solve_regularized_kkt(
            data, eps, init, cfg.tol_residual, cfg.max_iter)
        if not rep.converged and init is not None:
            # one cold-start retry before giving up on the path
            (yf, pf), rep = solve_regularized_kkt(
                data, eps, None, cfg.tol_residual, cfg.max_iter)
        report.eps_values.append(eps)
        report.inner_reports.append(rep)
        if not rep.converged:
            report.aborted = True
            report.failure_reason = f"inner solve failed at eps = {eps}"
            break
        y, p = yf.coeffs, pf.coeffs
        init = (y, p)
        chi = smoothed_max_prime(SmoothedMaxParams(eps), y)
        pt = KktPoint(ops.space.function(y), ops.space.function(p), ops.space.function(chi))
        report.limit_residuals.append(float(np.linalg.norm(kkt_solver.residual(data, pt))))
    if y is None:
        raise RuntimeError("regularization path produced no converged iterate")
    eps_final = report.eps_values[len(report.limit_residuals) - 1]
    chi = smoothed_max_prime(SmoothedMaxParams(eps_final), y)
    final = KktPoint(ops.space.function(y), ops.space.function(p), ops.space.function(chi))
    return final, report


@dataclass
class RateReport:
    slope: Optional[float]
    eps_values: list[float]
    gaps: list[float]
    degenerate: bool


def verify_lemma_rate(prob: StateProblem, u: FeFunction, eps_list) -> RateReport:
    """Fit the convergence rate of || S_eps(u) - S(u) ||_{L2} in eps.

    The theory guarantees an O(eps) bound, so the fitted log-log slope
    should be at least ~1 for smoothing-active states.
    """
    eps_list = list(eps_list)
    if len(eps_list) < 3 or max(eps_list) / min(eps_list) < 100:
        raise ValueError("need at least 3 eps values spanning two decades")
    y, rep = solve_state(prob, u)
    if not rep.converged:
        raise RuntimeError("exact state solve failed")
    gaps = []
    for eps in eps_list:
        ye, repe = solve_state_regularized(prob, u, eps)
        if not repe.converged:
            raise RuntimeError(f"regularized solve failed at eps = {eps}")
        gaps.append(m_norm(prob.ops, ye.coeffs - y.coeffs))
    if max(gaps) < 1e-14:
        return RateReport(None, eps_list, gaps, degenerate=True)
    slope = float(np.polyfit(np.log(eps_list), np.log(np.maximum(gaps, 1e-300)), 1)[0])
    return RateReport(slope, eps_list, gaps, degenerate=False)
