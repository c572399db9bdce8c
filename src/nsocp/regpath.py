"""Smoothed optimality system and continuation in the smoothing width.

For a fixed smoothing width eps the coupled first-order system reads

    A y + D max_eps(y) + (1/alpha) M p = M f
    A p + D (max_eps'(y) o p)          = M (y - y_d)

Driving eps -> 0 with warm starts recovers a solution of the limit
system, with the multiplier extracted as chi = max_eps'(y). Each fixed-eps
solve runs ``state_solver.newton`` on the stacked vector (y, p); its
Jacobian is factorised with the unknowns numbered node by node, as
(y_i, p_i) pairs in the mesh's nested-dissection order. ``run_path`` builds
that pair-ordered Jacobian once, with ``sp.bmat`` and a pair-order
permutation, and passes it to every solve of the path (a solve called on its
own builds its own); each step refills all three varying diagonals, so
nothing of an earlier step or solve survives in it.

Consecutive Jacobians differ only in their diagonal blocks D max_eps'(y) and
D max_eps''(y) o p, so ``run_path`` holds one LU for the whole eps schedule.
Each Newton step is first solved by ``sparse_core.refine`` from the held LU;
when refinement stops contracting, the LU is dropped and a fresh one is
factorised and held in its place. The holder is cleared when the path
returns or raises.

``verify_lemma_rate`` starts each smoothed state S_eps(u) from S(u).
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
from .sparse_core import SPLU_OPTIONS, SingularMatrixError, entry_positions, refine
from .state_solver import (NewtonReport, StateProblem, m_norm, newton, reusing_factorisations,
                           solve_state, solve_state_regularized)

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


def _pair_jacobian(ops, alpha: float):
    """The Jacobian [[A, M/alpha], [-M, A]] of the smoothed system without
    its smoothing terms, built by ``sp.bmat`` with the unknowns in
    (y_i, p_i)-pair order: row and column 2i is y at node nd[i], 2i + 1 is p
    there. Returns it with that pair order, the positions in its data of the
    (2i, 2i), (2i + 1, 2i + 1) and (2i + 1, 2i) entries, node by node (from
    ``entry_positions``), and the diagonals of A and M in that order, which a
    step adds its smoothing terms to."""
    a, m = ops.A, ops.M
    nd = ops.space.nd_order
    order = np.column_stack([nd, nd + len(nd)]).ravel()
    jac = sp.bmat([[a, m / alpha], [-m, a]], format="csr")[order][:, order]
    y = 2 * np.arange(len(nd))  # the row and column of y_i; those of p_i are y + 1
    yy, pp, py = (entry_positions(jac, r, c) for r, c in ((y, y), (y + 1, y + 1), (y + 1, y)))
    return jac, order, yy, pp, py, a.diagonal()[nd], m.diagonal()[nd]


def solve_regularized_kkt(data: ProblemData, eps: float,
                          init: Optional[tuple[np.ndarray, np.ndarray]] = None, held=None,
                          *, _jacobian=None):
    """Newton solve of the smoothed coupled system in (y, p); a non-finite
    ``init`` raises ValueError.

    ``held`` is the caller's holder: None, or a list that is empty or holds
    ``[LU]`` of a Jacobian in (y_i, p_i)-pair order. Each step is first
    solved by ``sparse_core.refine`` from the held LU; when that stops
    contracting, the holder is cleared and the step takes the fresh path:
    factorise this Jacobian (a failed LU raises SingularMatrixError with row
    -1) and hold its LU. Without a holder the call keeps one of its own and
    clears it before returning or raising.

    ``_jacobian`` is ``run_path``'s one ``_pair_jacobian(ops, alpha)`` for the
    whole path; None builds a new one.
    """
    params = SmoothedMaxParams(eps)
    ops = data.ops
    n = ops.space.n
    a, m = ops.A, ops.M
    d = ops.d
    alpha = data.config.alpha
    fvec = m @ data.f.coeffs
    ydvec = data.y_d.coeffs
    nd = ops.space.nd_order
    jac, order, yy, pp, py, a_diag, m_diag = _jacobian or _pair_jacobian(ops, alpha)
    own = held is None
    if own:
        held = []

    def residual(x):
        y, p = x[:n], x[n:]
        r1 = a @ y + d * smoothed_max(params, y) + (m @ p) / alpha - fvec
        r2 = a @ p + d * (smoothed_max_prime(params, y) * p) - m @ (y - ydvec)
        return np.concatenate([r1, r2])

    def step(x, r):
        y, p = x[:n], x[n:]
        jac.data[yy] = jac.data[pp] = a_diag + (d * smoothed_max_prime(params, y))[nd]
        jac.data[py] = (d * smoothed_max_second(params, y) * p)[nd] - m_diag
        k = jac
        if not jac.data[py].all():  # sp.bmat stores no zero (p, y) diagonal entry
            k = jac.copy()
            k.eliminate_zeros()
        b = -r[order]
        sol = refine(held[0], k, b) if held else None
        if sol is None:
            held.clear()  # free the old LU before the new one is built
            try:
                lu = splu(k.tocsc(), **SPLU_OPTIONS)
            except RuntimeError as exc:
                raise SingularMatrixError(-1) from exc
            held.append(lu)
            sol = lu.solve(b)
        dx = np.empty(2 * n)
        dx[order] = sol
        return dx

    x0 = np.zeros(2 * n) if init is None else np.concatenate(init)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    try:
        x, report = newton(x0, residual, step, TOL_RESIDUAL, MAX_ITER)
    finally:
        if own:
            held.clear()
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
    previous iterate, and all of them share one pair-ordered Jacobian and one
    held LU (see the module docstring), the LU cleared on return or raise.
    The first solve that fails ends the path, which then returns the last
    converged iterate, or raises PathAbortedError with the report if that
    was the first solve. Returns the final iterate packaged as a KKT point
    (chi = max_eps'(y) at the smallest eps) plus per-eps telemetry."""
    ops = data.ops
    report = PathReport([], [], [])
    init = pt = None
    held = []  # one LU for the whole schedule
    layout = _pair_jacobian(ops, data.config.alpha)
    try:
        for eps in cfg.eps_schedule:
            (yf, pf), rep = solve_regularized_kkt(data, eps, init, held=held, _jacobian=layout)
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


@reusing_factorisations()
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
