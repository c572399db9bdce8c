"""Scalar non-smooth primitives: max(0, .), its convex subdifferential,
the associated prox map, and a C^1 smoothed max family."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SmoothedMaxParams",
    "max0",
    "subdiff_max_contains",
    "prox",
    "prox_active",
    "smoothed_max",
    "smoothed_max_prime",
    "smoothed_max_second",
    "verify_smoothing_assumptions",
    "SmoothingReport",
]


def max0(x):
    """max(0, x), elementwise on arrays."""
    return np.maximum(0.0, x)


def subdiff_max_contains(x: float, g: float) -> bool:
    """Whether g lies in the convex subdifferential of max(0, .) at x."""
    if x < 0:
        return g == 0
    if x > 0:
        return g == 1
    return 0.0 <= g <= 1.0


def prox(gamma: float, x):
    """Prox map of max(0, .): x for x<0, 0 on [0, gamma], x-gamma for x>gamma."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0, x, np.where(x > gamma, x - gamma, 0.0))
    return out if out.ndim else float(out)


def prox_active(gamma: float, x) -> bool | np.ndarray:
    """True where the prox map has slope 1, i.e. x outside [0, gamma]."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    x = np.asarray(x, dtype=float)
    out = (x < 0) | (x > gamma)
    return out if out.ndim else bool(out)


@dataclass(frozen=True)
class SmoothedMaxParams:
    eps: float

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("smoothing width must be positive and finite")


def smoothed_max(p: SmoothedMaxParams, x):
    """C^1 quadratic-spline smoothing of max(0, .); |error| <= eps/2."""
    e = p.eps
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0, 0.0, np.where(x >= e, x - e / 2.0, x * x / (2.0 * e)))
    return out if out.ndim else float(out)


def smoothed_max_prime(p: SmoothedMaxParams, x):
    e = p.eps
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0, 0.0, np.where(x >= e, 1.0, x / e))
    return out if out.ndim else float(out)


def smoothed_max_second(p: SmoothedMaxParams, x):
    """Second derivative where it exists: 1/eps on (0, eps), 0 elsewhere."""
    e = p.eps
    x = np.asarray(x, dtype=float)
    out = np.where((x > 0) & (x < e), 1.0 / e, 0.0)
    return out if out.ndim else float(out)


@dataclass
class SmoothingReport:
    passed: bool
    violations: list[str] = field(default_factory=list)


def verify_smoothing_assumptions(
    p: SmoothedMaxParams,
    sample_grid,
    delta: Optional[float] = None,
) -> SmoothingReport:
    """Check the smoothed-max family on a sample grid.

    Verifies the uniform O(eps) bound, the derivative bounds 0..1, the
    saturation outside [-delta, delta] when eps < delta, and continuity of
    the derivative at the kinks 0 and eps.
    """
    grid = np.asarray(sample_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sample grid must be nonempty")
    v: list[str] = []

    gap = np.abs(smoothed_max(p, grid) - max0(grid))
    if np.any(gap > p.eps / 2 + 1e-15):
        i = int(np.argmax(gap))
        v.append(f"|max_eps - max| = {gap[i]:.3e} > eps/2 at x = {grid[i]:.6g}")

    d = smoothed_max_prime(p, grid)
    if np.any((d < -1e-15) | (d > 1 + 1e-15)):
        i = int(np.argmax(np.maximum(-d, d - 1)))
        v.append(f"derivative bound violated: {d[i]:.6g} at x = {grid[i]:.6g}")

    if delta is not None and p.eps < delta:
        right = grid[grid >= delta]
        if right.size and np.any(np.abs(smoothed_max_prime(p, right) - 1.0) > 1e-15):
            v.append("derivative not identically 1 on [delta, inf)")
        left = grid[grid <= -delta]
        if left.size and np.any(np.abs(smoothed_max_prime(p, left)) > 1e-15):
            v.append("derivative not identically 0 on (-inf, -delta]")

    for kink in (0.0, p.eps):
        step = max(abs(kink), 1.0) * 1e-13
        jump = abs(
            float(smoothed_max_prime(p, kink + step)) - float(smoothed_max_prime(p, kink - step))
        )
        if jump > 1e-12 + 2 * step / p.eps:
            v.append(f"derivative discontinuous at x = {kink:.6g} (jump {jump:.3e})")

    return SmoothingReport(passed=not v, violations=v)
