"""Smoothed optimality system and continuation in the smoothing width.

For a fixed smoothing width eps the coupled first-order system reads

    A y + D max_eps(y) + (1/alpha) M p = M f
    A p + D (max_eps'(y) o p)          = M (y - y_d)

Driving eps -> 0 with warm starts recovers a solution of the limit
system, with the multiplier extracted as chi = max_eps'(y). Each fixed-eps
solve runs ``state_solver.newton`` on the stacked vector (y, p).

Every Jacobian is K0 = [[A, M / alpha], [-M, A]] plus the diagonals
D max_eps'(y) and D max_eps''(y) o p, so ``run_path`` makes one pair
``fe_mesh.SineSeed`` of K0, a float32 solve, for the whole eps schedule.
Each Newton step is first solved by ``sparse_core.refine`` in float64 from
that seed, in the seed's block order [y; p], with its products from A, M
and the step's diagonals (``fe_mesh.pair_operator``). When refinement
declines, ``sparse_core.fgmres`` solves the step from the same seed. Only
when FGMRES declines too is the step's Jacobian factorised, by
``sparse_core.solve_linear``'s float64 LU, which names a deficient row in
block order. That Jacobian comes from the solve's ``fe_mesh.PairJacobian``,
the layout the KKT step factorises too: the unknowns numbered node by node,
as (y_i, p_i) pairs in the mesh's nested-dissection order, which is
computed only then. Each row is scaled by its largest entry. The layout is
made at the first LU of each fixed-eps solve and refilled by each later
one with all three varying diagonals, so nothing of an earlier step
survives in it. No LU is held: each is dropped once its step is solved.

``verify_lemma_rate`` starts each smoothed state S_eps(u) from S(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import kkt_solver
from .kkt_solver import KktPoint, ProblemData
from .fe_mesh import FeFunction, PairJacobian, SineSeed, pair_operator
from .nonsmooth import (
    SmoothedMaxParams,
    smoothed_max,
    smoothed_max_prime,
    smoothed_max_second,
)
from .sparse_core import fgmres, refine, solve_linear
from .state_solver import (NewtonReport, StateProblem, m_norm, newton, solve_state,
                           solve_state_regularized)

__all__ = [
    "RegPathConfig",
    "PathReport",
    "PathAbortedError",
    "RateReport",
    "solve_regularized_kkt",
    "run_path",
    "verify_lemma_rate",
]


# each fixed-eps Newton solve stops once the Euclidean residual norm is at
# most TOL_RESIDUAL, or reports failure after MAX_ITER steps
TOL_RESIDUAL = 1e-12
MAX_ITER = 50


@dataclass(frozen=True)
class RegPathConfig:
    eps_schedule: tuple

    def __post_init__(self):
        sched = tuple(self.eps_schedule)
        if not sched:
            raise ValueError("eps schedule must be nonempty")
        if any(isinstance(e, bool) or not (np.isfinite(e) and e > 0) for e in sched) or any(
                sched[k + 1] >= sched[k] for k in range(len(sched) - 1)):
            raise ValueError("eps schedule must hold finite, positive, strictly decreasing numbers")
        object.__setattr__(self, "eps_schedule", sched)


def solve_regularized_kkt(data: ProblemData, eps: float,
                          init: Optional[tuple[np.ndarray, np.ndarray]] = None, seed=None):
    """Newton solve of the smoothed coupled system in (y, p); a non-finite
    ``init`` raises ValueError.

    ``seed`` is the pair ``SineSeed`` of the caller's path, or None for one
    made by the call. Each step is first solved by ``sparse_core.refine``
    from the seed, in block order, with its products from A, M and the
    step's diagonals (``pair_operator``); when that declines,
    ``sparse_core.fgmres`` solves the step from the same seed. When that
    declines too, the step's Jacobian, from the call's one ``PairJacobian``
    in (y_i, p_i)-pair order, is row-equilibrated and solved by
    ``sparse_core.solve_linear``, whose singular verdict names its row in
    block order.
    """
    params = SmoothedMaxParams(eps)
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    d = ops.d
    alpha = data.config.alpha
    fvec = m @ data.f.coeffs
    ydvec = data.y_d.coeffs
    jacobian = PairJacobian(ops, alpha)
    if seed is None:
        seed = SineSeed(ops.space, alpha)

    def residual(x):
        y, p = x[:n], x[n:]
        r1 = a @ y + d * smoothed_max(params, y) + (m @ p) / alpha - fvec
        r2 = a @ p + d * (smoothed_max_prime(params, y) * p) - m @ (y - ydvec)
        return np.concatenate([r1, r2])

    def step(x, r):
        y, p = x[:n], x[n:]
        d_yy = d * smoothed_max_prime(params, y)
        d_py = d * smoothed_max_second(params, y) * p
        pair = pair_operator(ops, alpha, d_yy, d_yy, d_py)
        sol = refine(seed, pair, -r)
        if sol is None:
            sol = fgmres(seed, pair, -r)
        if sol is None:
            jac = jacobian.at(d_yy, d_yy, d_py)
            scale = np.maximum.reduceat(np.abs(jac.data), jac.indptr[:-1])
            k = sp.csr_matrix((jac.data * np.repeat(1.0 / scale, np.diff(jac.indptr)),
                               jac.indices, jac.indptr), shape=jac.shape).tocsc()
            order = jacobian.order
            sol = np.empty(2 * n)
            sol[order] = solve_linear(k, order, -r[order] / scale)
        return sol

    x0 = np.zeros(2 * n) if init is None else np.concatenate(init)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    try:
        x, report = newton(x0, residual, step, TOL_RESIDUAL, MAX_ITER)
    finally:
        del jacobian, seed  # nothing outlives the call, even from a traceback's frame
    return (ops.space.function(x[:n]), ops.space.function(x[n:])), report


@dataclass
class PathReport:
    """Per-eps telemetry of ``run_path``: each eps is solved once, from the
    previous iterate, and the first failed solve ends the path (``aborted``)."""
    eps_values: list[float]
    inner_reports: list[NewtonReport]
    limit_residuals: list[float]
    aborted: bool = False
    failure_reason: Optional[str] = None


class PathAbortedError(RuntimeError):
    """``run_path`` failed at its first eps, so it has no iterate to return;
    ``report`` is its ``PathReport`` up to and including that failure."""

    def __init__(self, report: PathReport):
        self.report = report
        super().__init__("regularization path produced no converged iterate")


def run_path(data: ProblemData, cfg: RegPathConfig):
    """Continuation over the eps schedule; each solve warm-starts from the
    previous iterate, and all of them share one pair seed (see the module
    docstring), which is dropped on return or raise.
    The first solve that fails ends the path, which then returns the last
    converged iterate, or raises PathAbortedError with the report if that
    was the first solve. Returns the final iterate packaged as a KKT point
    (chi = max_eps'(y) at the smallest eps) plus per-eps telemetry."""
    ops = data.ops
    report = PathReport([], [], [])
    init = pt = None
    seed = SineSeed(ops.space, data.config.alpha)  # for the whole schedule
    try:
        for eps in cfg.eps_schedule:
            (yf, pf), rep = solve_regularized_kkt(data, eps, init, seed)
            report.eps_values.append(eps)
            report.inner_reports.append(rep)
            if not rep.converged:
                report.aborted = True
                report.failure_reason = f"inner solve failed at eps = {eps}"
                break
            init = (yf.coeffs, pf.coeffs)
            chi = smoothed_max_prime(SmoothedMaxParams(eps), yf.coeffs)
            pt = KktPoint(yf, pf, ops.space.function(chi))
            report.limit_residuals.append(float(np.linalg.norm(kkt_solver.residual(data, pt))))
    finally:
        del seed
    if pt is None:
        raise PathAbortedError(report)
    return pt, report


@dataclass
class RateReport:
    slope: Optional[float]
    eps_values: list[float]
    gaps: list[float]
    degenerate: bool


def verify_lemma_rate(prob: StateProblem, u: FeFunction, eps_list) -> RateReport:
    """Fit the convergence rate of || S_eps(u) - S(u) ||_{L2} in eps; each
    S_eps(u) is solved from S(u).

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
        ye, repe = solve_state_regularized(prob, u, eps, init=y)
        if not repe.converged:
            raise RuntimeError(f"regularized solve failed at eps = {eps}")
        gaps.append(m_norm(prob.ops, ye.coeffs - y.coeffs))
    if max(gaps) < 1e-14:
        return RateReport(None, eps_list, gaps, degenerate=True)
    slope = float(np.polyfit(np.log(eps_list), np.log(np.maximum(gaps, 1e-300)), 1)[0])
    return RateReport(slope, eps_list, gaps, degenerate=False)
