"""Manufactured test problems with known exact solutions.

Example 1: smooth state sin(pi x1) sin(2 pi x2), zero adjoint, zero
control; the state crosses zero only on a line, so the multiplier is the
indicator of {y > 0} at every node.

Example 2: state = adjoint = piecewise-quartic profile times sin(pi x2),
identically zero on the right half of the square. The state vanishes on a
set of positive measure and the multiplier is non-unique there; this is
the genuinely non-smooth (worst-case) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fe_mesh import FeFunction, FeSpace, assemble_operators, interpolate
from .kkt_solver import KktConfig, ProblemData

__all__ = ["ExactSolution", "build_example1", "build_example2", "build_example"]

PI = np.pi


@dataclass(frozen=True)
class ExactSolution:
    y: Callable
    p: Callable
    u: Callable
    chi_nodal: Optional[FeFunction]  # None when the multiplier is non-unique
    p_error_relative: bool


def build_example1(space: FeSpace, alpha: float = 1e-4, gamma: float = 1e-4):
    """Smooth manufactured solution; requires odd mesh subdivision so that
    no node hits the zero line {x2 = 1/2} of the exact state."""
    if space.mesh.m % 2 == 0:
        raise ValueError("example 1 needs an odd subdivision count "
                         "(even meshes place nodes on the zero set of the state)")
    cfg = KktConfig(alpha=alpha, gamma=gamma)

    def y_exact(x1, x2):
        return np.sin(PI * x1) * np.sin(2 * PI * x2)

    def p_exact(x1, x2):
        return np.zeros_like(np.asarray(x1, dtype=float))

    def u_exact(x1, x2):
        return np.zeros_like(np.asarray(x1, dtype=float))

    def f_fun(x1, x2):
        yv = y_exact(x1, x2)
        return 5.0 * PI * PI * yv + np.maximum(0.0, yv)

    ops = assemble_operators(space)
    f = interpolate(space, f_fun)
    y_d = interpolate(space, y_exact)
    chi_star = interpolate(space, lambda x1, x2: (y_exact(x1, x2) > 0).astype(float))
    data = ProblemData(ops=ops, f=f, y_d=y_d, config=cfg)
    exact = ExactSolution(y=y_exact, p=p_exact, u=u_exact,
                          chi_nodal=chi_star, p_error_relative=False)
    return data, exact


def _profile(x1):
    """g(t) = t^4 + t^3/2 for t = x1 - 1/2 < 0, zero for t >= 0 (C^2)."""
    t = np.asarray(x1, dtype=float) - 0.5
    return np.where(t < 0, t ** 4 + 0.5 * t ** 3, 0.0)


def _profile_dd(x1):
    t = np.asarray(x1, dtype=float) - 0.5
    return np.where(t < 0, 12.0 * t ** 2 + 3.0 * t, 0.0)


def build_example2(space: FeSpace, alpha: float = 1e-4, gamma: float = 1e-12):
    """Nonpositive state vanishing on the right half of the square."""
    cfg = KktConfig(alpha=alpha, gamma=gamma)

    def y_exact(x1, x2):
        return _profile(x1) * np.sin(PI * x2)

    p_exact = y_exact

    def laplace_y(x1, x2):
        return (_profile_dd(x1) - PI * PI * _profile(x1)) * np.sin(PI * x2)

    def u_exact(x1, x2):
        return -p_exact(x1, x2) / alpha

    def f_fun(x1, x2):
        # state equation with max(0, y) = 0: f = -Lap(y) - u
        return -laplace_y(x1, x2) + y_exact(x1, x2) / alpha

    def yd_fun(x1, x2):
        # adjoint with chi = 0: y_d = y + Lap(p), and p = y here
        return y_exact(x1, x2) + laplace_y(x1, x2)

    ops = assemble_operators(space)
    f = interpolate(space, f_fun)
    y_d = interpolate(space, yd_fun)
    data = ProblemData(ops=ops, f=f, y_d=y_d, config=cfg)
    exact = ExactSolution(y=y_exact, p=p_exact, u=u_exact,
                          chi_nodal=None, p_error_relative=True)
    return data, exact


def build_example(example: int, space: FeSpace, alpha: float, gamma: float):
    if example == 1:
        return build_example1(space, alpha, gamma)
    if example == 2:
        return build_example2(space, alpha, gamma)
    raise ValueError(f"unknown example {example}")
