"""Experiment orchestration: parameter sweeps, error tables, CSV output."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .examples import build_example
from .fe_mesh import build_mesh, build_space, interpolate, linf_nodal_error
from .kkt_solver import KktConfig, solve_kkt
from .regpath import RegPathConfig
from .state_solver import m_norm

__all__ = [
    "RunConfig",
    "ExperimentRow",
    "run_cell",
    "run_sweep",
    "estimate_order",
    "CSV_HEADER",
]

CSV_HEADER = ["h", "alpha", "gamma", "err_y_rel", "err_p", "err_chi_linf",
              "newton_iters", "status"]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    example: int = 1
    m_list: list[int] = field(default_factory=lambda: [33, 65, 129, 257])
    alpha_list: list[float] = field(default_factory=lambda: [1e-4])
    gamma_list: list[float] = field(default_factory=lambda: [1e-4])
    eps_schedule: list[float] = field(default_factory=lambda: [10.0 ** -k for k in range(1, 7)])
    output_dir: str = "out"

    def validate(self):
        if not _is_int(self.example) or self.example not in (1, 2):
            raise ValueError("example must be 1 or 2")
        if not self.m_list or not self.alpha_list or not self.gamma_list:
            raise ValueError("m, alpha, and gamma lists must be non-empty")
        if not all(_is_int(m) for m in self.m_list):
            raise ValueError("mesh subdivisions must be integers")
        if any(m < 2 for m in self.m_list):
            raise ValueError("mesh subdivisions must be at least 2")
        if self.example == 1 and any(m % 2 == 0 for m in self.m_list):
            raise ValueError("example 1 requires odd mesh subdivisions")
        if self.example == 2 and 2 in self.m_list:
            raise ValueError("example 2 requires at least 3 mesh subdivisions")
        for alpha in self.alpha_list:
            for gamma in self.gamma_list:
                KktConfig(alpha=alpha, gamma=gamma)
        RegPathConfig(tuple(self.eps_schedule))
        if not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string")


@dataclass
class ExperimentRow:
    h: float
    alpha: float
    gamma: float
    err_y_rel: Optional[float]
    err_p: Optional[float]
    err_chi_linf: Optional[float]
    newton_iters: int
    status: str  # "converged" or "no_conv"

    def as_csv(self) -> list[str]:
        def fmt(x):
            return "" if x is None else f"{x:.15g}"
        return [f"{self.h:.15g}", f"{self.alpha:.15g}", f"{self.gamma:.15g}",
                fmt(self.err_y_rel), fmt(self.err_p), fmt(self.err_chi_linf),
                str(self.newton_iters), self.status]


def run_cell(example: int, m: int, alpha: float, gamma: float):
    """One sweep cell: solve the optimality system and measure errors.

    Returns (row, point, report); error cells are None on non-convergence.
    """
    space = build_space(build_mesh(m))
    data, exact = build_example(example, space, alpha, gamma)
    pt, report = solve_kkt(data)
    h = space.mesh.h
    if not report.converged:
        return (ExperimentRow(h, alpha, gamma, None, None, None,
                              report.iterations, "no_conv"), pt, report)

    # errors are measured against the FE representation (nodal interpolant)
    # of the constructed solution, in the continuous L2 norm of the FE space
    y_star = interpolate(space, exact.y)
    p_star = interpolate(space, exact.p)
    err_y = m_norm(data.ops, pt.y.coeffs - y_star.coeffs) \
        / m_norm(data.ops, y_star.coeffs)
    err_p = m_norm(data.ops, pt.p.coeffs - p_star.coeffs)
    if exact.p_error_relative:
        err_p = err_p / m_norm(data.ops, p_star.coeffs)
    err_chi = None
    if exact.chi_nodal is not None:
        err_chi = linf_nodal_error(pt.chi, exact.chi_nodal)
    return (ExperimentRow(h, alpha, gamma, err_y, err_p, err_chi,
                          report.iterations, "converged"), pt, report)


def run_sweep(cfg: RunConfig, progress=None) -> tuple[list[ExperimentRow], Path]:
    """Run all (m, alpha, gamma) combinations and write one CSV table."""
    cfg.validate()
    rows = []
    for m in cfg.m_list:
        for alpha in cfg.alpha_list:
            for gamma in cfg.gamma_list:
                row, _, _ = run_cell(cfg.example, m, alpha, gamma)
                rows.append(row)
                if progress is not None:
                    progress(row)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"table{cfg.example}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow(row.as_csv())
    return rows, path


def estimate_order(h_list, err_list) -> float:
    """Least-squares slope of log(err) against log(h)."""
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(err_list, dtype=float)
    if len(h) < 2 or len(h) != len(e):
        raise ValueError("need at least two matching (h, err) pairs")
    if not (np.all(np.isfinite(h) & (h > 0)) and np.all(np.isfinite(e) & (e > 0))):
        raise ValueError("entries must be positive")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
