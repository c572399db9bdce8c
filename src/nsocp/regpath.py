"""Smoothed optimality system and continuation in the smoothing width.

For a fixed smoothing width eps the coupled first-order system reads

    A y + D max_eps(y) + (1/alpha) M p = M f
    A p + D (max_eps'(y) o p)          = M (y - y_d)

Driving eps -> 0 with warm starts recovers a solution of the limit
system, with the multiplier extracted as chi = max_eps'(y). Each fixed-eps
solve runs ``state_solver.newton`` on the stacked vector (y, p).

Every Jacobian is K0 = [[A, M / alpha], [-M, A]] plus the diagonals
D max_eps'(y) and D max_eps''(y) o p, so ``run_path`` holds one pair
``fe_mesh.SineSeed`` of K0, a float32 solve, for the whole eps schedule.
Each Newton step is first solved by ``sparse_core.refine`` in float64 from
the last thing held, in the seed's block order [y; p], with its products
from A, M and the step's diagonals (``fe_mesh.pair_operator``). When
refinement declines, a held LU is dropped and ``sparse_core.fgmres``
solves the step from the seed, never from an LU. Only when FGMRES declines
too is the step's Jacobian factorised by a float64 LU, which is held
behind the seed. That Jacobian comes from the solve's
``fe_mesh.PairJacobian``, the layout the KKT step factorises too: the
unknowns numbered node by node, as (y_i, p_i) pairs in the mesh's
nested-dissection order, which is computed only then. The LU solves in
block order by permuting to and from that order. The layout is made at the
first fresh LU of each fixed-eps solve and kept for the rest of it; each LU
refills all three varying diagonals, so nothing of an earlier step survives
in it. A failed LU names its row through ``sparse_core.singular_error``.
The holder is cleared when the path returns or raises.

``verify_lemma_rate`` starts each smoothed state S_eps(u) from S(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu

from . import kkt_solver
from .kkt_solver import KktPoint, ProblemData
from .fe_mesh import FeFunction, PairJacobian, SineSeed, pair_operator
from .nonsmooth import (
    SmoothedMaxParams,
    smoothed_max,
    smoothed_max_prime,
    smoothed_max_second,
)
from .sparse_core import SPLU_OPTIONS, fgmres, refine, singular_error
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
                          init: Optional[tuple[np.ndarray, np.ndarray]] = None, held=None):
    """Newton solve of the smoothed coupled system in (y, p); a non-finite
    ``init`` raises ValueError.

    ``held`` is the caller's holder: None, or a list that holds the pair
    ``SineSeed``, followed by a ``_BlockOrderLu`` once one is made. Each
    step is first solved by ``sparse_core.refine`` from the last thing held,
    in block order, with its products from A, M and the step's diagonals
    (``pair_operator``); when that declines, the LU, if any, is dropped and
    ``sparse_core.fgmres`` solves the step from the seed. When that declines
    too, the step takes the fresh path: factorise its Jacobian in
    (y_i, p_i)-pair order (a failed LU raises SingularMatrixError naming its
    row in block order) and hold that LU behind the seed. Without a holder
    the call keeps its own, seeded, and clears it before returning or
    raising. The call's one ``PairJacobian`` is laid out by its first fresh
    LU and refilled by each later one.
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
    own = held is None
    if own:
        held = [SineSeed(ops.space, alpha)]

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
        sol = refine(held[-1], pair, -r)
        if sol is None:
            del held[1:]  # free a held LU before anything else is built
            sol = fgmres(held[0], pair, -r)
        if sol is None:
            k = jacobian.at(d_yy, d_yy, d_py).tocsc()
            try:
                lu = splu(k, **SPLU_OPTIONS)
            except RuntimeError as exc:
                raise singular_error(k, jacobian.order) from exc
            held.append(_BlockOrderLu(lu, jacobian.order))
            sol = held[-1].solve(-r)
        return sol

    x0 = np.zeros(2 * n) if init is None else np.concatenate(init)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    try:
        x, report = newton(x0, residual, step, TOL_RESIDUAL, MAX_ITER)
    finally:
        del jacobian  # nothing outlives the call, even from a traceback's frame
        if own:
            held.clear()
    return (ops.space.function(x[:n]), ops.space.function(x[n:])), report


class _BlockOrderLu:
    """A float64 LU of the Jacobian in (y_i, p_i)-pair order that solves for
    [y; p] in block order, as the pair ``SineSeed`` does."""

    dtype = np.dtype(np.float64)

    def __init__(self, lu, order: np.ndarray):
        self._lu, self._order = lu, order
        self.shape = lu.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(len(b))
        x[self._order] = self._lu.solve(b[self._order])
        return x


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
    previous iterate, and all of them share one seeded holder (see the
    module docstring), which is cleared on return or raise.
    The first solve that fails ends the path, which then returns the last
    converged iterate, or raises PathAbortedError with the report if that
    was the first solve. Returns the final iterate packaged as a KKT point
    (chi = max_eps'(y) at the smallest eps) plus per-eps telemetry."""
    ops = data.ops
    report = PathReport([], [], [])
    init = pt = None
    held = [SineSeed(ops.space, data.config.alpha)]  # for the whole schedule
    try:
        for eps in cfg.eps_schedule:
            (yf, pf), rep = solve_regularized_kkt(data, eps, init, held=held)
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
        held.clear()
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
