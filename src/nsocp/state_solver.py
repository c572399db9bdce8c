"""The semi-smooth Newton driver, and forward solvers for
-Δy + max(0,y) = u + f and its linearizations.

``newton`` is the package's one Newton loop; every solve supplies it a
residual and a step. Discrete form (lumped non-smooth term):
A y + D max(0, y) = M (u + f). The state, the regularized state and the
directional derivative of the control-to-state map are one forward solve
of A y + D phi(y) = M g with different phi. Also provides the linear
operators G_chi representing generalized-derivative elements.

Every n x n matrix is A + diag(c) with c in [0, d], which lies within
[1, 1.06] A, and the sine basis of the grid diagonalises A. So each Newton
step is solved by ``sparse_core.refine`` from ``fe_mesh.SineSeed(space)``, a
float32 solve of A by the sine transform, refined in float64 with the
products A x + c x taken from A and c; A + diag(c) is never formed. When
refinement declines, the step is solved by sparse LU of
(A + diag(c))[nd][:, nd], in the mesh's nested-dissection order nd.
Nothing outlives a solve.

A forward solve starts from zero or from a given ``init``. The finite
difference check starts each perturbed state S(u + t h) from S(u): the
equation is piecewise linear, so while the sign pattern of S(u) holds the
warm start converges in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from .fe_mesh import FeFunction, FeOperators, SineSeed
from .nonsmooth import SmoothedMaxParams, max0, smoothed_max, smoothed_max_prime
from .sparse_core import SPLU_OPTIONS, SingularMatrixError, refine, singular_error

__all__ = [
    "StateProblem",
    "NewtonReport",
    "FiniteDifferenceReport",
    "newton",
    "solve_state",
    "solve_state_regularized",
    "directional_derivative",
    "finite_difference_check",
    "gateaux_zero_fraction",
    "apply_Gchi",
    "check_symmetric_derivative",
    "m_norm",
]

DEFAULT_ZERO_TOL = 1e-12
MAX_NEWTON_ITER = 50


@dataclass(frozen=True)
class StateProblem:
    ops: FeOperators
    f: FeFunction

    def __post_init__(self):
        if self.f.space is not self.ops.space:
            raise ValueError("inhomogeneity must live on the operator space")
        if not np.all(np.isfinite(self.f.coeffs)):
            raise ValueError("inhomogeneity must be finite")


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    failure_reason: Optional[str] = None


def m_norm(ops: FeOperators, v: np.ndarray) -> float:
    """Continuous L2 norm of the P1 function with coefficients v."""
    mv = ops.M @ v
    return float(np.sqrt(max(v @ mv, 0.0)))


def newton(x0: np.ndarray, residual, step, tol: float, max_iter: int):
    """Undamped semi-smooth Newton: x <- x + step(x, r) until ||r|| <= tol.

    ``step(x, r)`` returns the correction and raises SingularMatrixError
    when the Jacobian cannot be factorised; that, a non-finite residual and
    the iteration limit end the run with a failure reason.
    """
    x = x0
    history = []
    for it in range(max_iter + 1):
        r = residual(x)
        rn = float(np.linalg.norm(r))
        history.append(rn)
        if rn <= tol:
            return x, NewtonReport(True, it, history)
        if not np.isfinite(rn):
            return x, NewtonReport(False, it, history, "non-finite residual")
        if it == max_iter:
            break
        try:
            x = x + step(x, r)
        except SingularMatrixError as exc:
            return x, NewtonReport(False, it, history, str(exc))
    return x, NewtonReport(False, max_iter, history, "no convergence within iteration limit")


def _lu_solve(ops: FeOperators, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + diag(c)) x = rhs by sparse LU in nested-dissection order."""
    order = ops.space.nd_order
    k = (ops.A + sp.diags(c))[order][:, order].tocsc()
    try:
        lu = splu(k, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise singular_error(k, order) from exc
    x = np.empty(len(rhs))
    x[order] = lu.solve(rhs[order])
    return x


def _shifted_solve(ops: FeOperators, seed: SineSeed, c: np.ndarray, rhs: np.ndarray):
    """Solve (A + diag(c)) x = rhs, c in [0, d], by ``refine`` from the
    stiffness seed ``seed``, or by ``_lu_solve`` when refinement declines."""
    a = ops.A
    op = LinearOperator(a.shape, matvec=lambda x: a @ x + c * x, dtype=float)
    x = refine(seed, op, rhs)
    return _lu_solve(ops, c, rhs) if x is None else x


def _solve_forward(ops: FeOperators, g: np.ndarray, phi, dphi,
                   init: Optional[FeFunction] = None):
    """Newton solve of A y + D phi(y) = M g from y = 0, or from ``init``;
    dphi(y) is an element of the generalized derivative of phi at y. An
    ``init`` on another space or with a non-finite value raises ValueError."""
    if init is None:
        y0 = np.zeros(ops.space.n)
    elif init.space is not ops.space:
        raise ValueError("initial point must live on the operator space")
    elif not np.all(np.isfinite(init.coeffs)):
        raise ValueError("initial point must be finite")
    else:
        y0 = init.coeffs.copy()  # a run that takes no step returns it
    a = ops.A
    d = ops.d
    b = ops.M @ g
    tol = 1e-12 * max(1.0, float(np.linalg.norm(b)))
    seed = SineSeed(ops.space)
    y, rep = newton(y0,
                    lambda y: a @ y + d * phi(y) - b,
                    lambda y, r: _shifted_solve(ops, seed, d * dphi(y), -r),
                    tol, MAX_NEWTON_ITER)
    return ops.space.function(y), rep


def solve_state(prob: StateProblem, u: FeFunction, init: Optional[FeFunction] = None):
    """Semi-smooth Newton solve of A y + D max(0,y) = M (u + f), from zero
    or from ``init`` (finite, on the problem's space)."""
    return _solve_forward(prob.ops, u.coeffs + prob.f.coeffs, max0,
                          lambda y: (y > 0).astype(float), init)


def solve_state_regularized(prob: StateProblem, u: FeFunction, eps: float,
                            init: Optional[FeFunction] = None):
    """Newton solve of the smoothed state equation A y + D max_eps(y) = M (u + f),
    from zero or from ``init`` (finite, on the problem's space)."""
    params = SmoothedMaxParams(eps)
    return _solve_forward(prob.ops, u.coeffs + prob.f.coeffs,
                          lambda y: smoothed_max(params, y),
                          lambda y: smoothed_max_prime(params, y), init)


def directional_derivative(prob: StateProblem, y: FeFunction, h: FeFunction,
                           zero_tol: float = DEFAULT_ZERO_TOL):
    """Directional derivative of the control-to-state map at state y.

    Solves A d + D (1_{|y|<=tol} max(0,d) + 1_{y>tol} d) = M h by
    semi-smooth Newton.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    zero_band = np.abs(y.coeffs) <= zero_tol
    positive = y.coeffs > zero_tol
    return _solve_forward(
        prob.ops, h.coeffs,
        lambda delta: zero_band * max0(delta) + positive * delta,
        lambda delta: zero_band * (delta > 0).astype(float) + positive.astype(float))


@dataclass
class FiniteDifferenceReport:
    t_list: list[float]
    errors: list[float]
    monotone: bool
    final_ok: bool
    delta_norm: float


def finite_difference_check(prob: StateProblem, u: FeFunction, h: FeFunction,
                            t_list, zero_tol: float = DEFAULT_ZERO_TOL) -> FiniteDifferenceReport:
    """Compare difference quotients of the forward map with the directional
    derivative: e(t) = || (S(u+t h) - S(u))/t - delta ||_{L2}. Each perturbed
    state is solved from S(u)."""
    t_list = list(t_list)
    if not t_list or any(t <= 0 for t in t_list) or any(
            t_list[k + 1] >= t_list[k] for k in range(len(t_list) - 1)):
        raise ValueError("t_list must be positive and decreasing")
    ops = prob.ops
    y0, rep0 = solve_state(prob, u)
    if not rep0.converged:
        raise RuntimeError("base state solve failed")
    delta, repd = directional_derivative(prob, y0, h, zero_tol)
    if not repd.converged:
        raise RuntimeError("directional derivative solve failed")
    dnorm = m_norm(ops, delta.coeffs)

    errors = []
    for t in t_list:
        ut = ops.space.function(u.coeffs + t * h.coeffs)
        yt, rept = solve_state(prob, ut, init=y0)
        if not rept.converged:
            raise RuntimeError(f"perturbed state solve failed at t = {t}")
        quot = (yt.coeffs - y0.coeffs) / t
        errors.append(m_norm(ops, quot - delta.coeffs))

    # difference quotients amplify the 1e-12 solver residual by 1/t, so
    # comparisons below that noise floor carry no information
    floor = 1e-9 * (1.0 + dnorm)
    monotone = all(
        errors[k + 1] <= 1.1 * errors[k] + 1e-14 or errors[k + 1] <= floor
        for k in range(len(errors) - 1)
    )
    final_ok = errors[-1] <= 1e-4 * (1.0 + dnorm)
    return FiniteDifferenceReport(t_list, errors, monotone, final_ok, dnorm)


def gateaux_zero_fraction(y: FeFunction, zero_tol: float = DEFAULT_ZERO_TOL) -> float:
    """Fraction of interior nodes inside the zero band of y."""
    n = y.space.n
    if n == 0:
        return 0.0
    return float(np.count_nonzero(np.abs(y.coeffs) <= zero_tol)) / n


def apply_Gchi(ops: FeOperators, chi: FeFunction, h: FeFunction) -> FeFunction:
    """Apply the generalized-derivative element G_chi: solve (A + D diag(chi)) eta = M h.

    chi must take values in [0, 1]; anything else is not a valid
    subdifferential coefficient.
    """
    c = chi.coeffs
    if not np.all((c >= 0) & (c <= 1)):  # also rejects NaN
        raise ValueError("chi must take values in [0, 1]")
    eta = _shifted_solve(ops, SineSeed(ops.space), ops.d * c, ops.M @ h.coeffs)
    return ops.space.function(eta)


def check_symmetric_derivative(prob: StateProblem, u: FeFunction, h: FeFunction,
                               zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
    """Whether S'(u; h) = -S'(u; -h) holds numerically (Gateaux criterion)."""
    ops = prob.ops
    y, rep = solve_state(prob, u)
    if not rep.converged:
        raise RuntimeError("state solve failed")
    dpos, r1 = directional_derivative(prob, y, h, zero_tol)
    minus_h = ops.space.function(-h.coeffs)
    dneg, r2 = directional_derivative(prob, y, minus_h, zero_tol)
    if not (r1.converged and r2.converged):
        raise RuntimeError("directional derivative solve failed")
    gap = m_norm(ops, dpos.coeffs + dneg.coeffs)
    return gap <= 1e-8 * (1.0 + m_norm(ops, dpos.coeffs))
