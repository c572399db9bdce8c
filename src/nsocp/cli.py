"""Command-line interface: single solves, sweeps, continuation, checks.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .examples import build_example
from .fe_mesh import build_mesh, build_space, export_vtk, interpolate
from .harness import RunConfig, estimate_order, run_cell, run_sweep
from .kkt_solver import recover_control, solve_kkt
from .regpath import PathAbortedError, RegPathConfig, run_path, verify_lemma_rate
from .state_solver import StateProblem, m_norm, solve_state
from .stationarity import (
    check_bouligand_residual,
    check_chi_admissible,
    check_primal_stationarity,
    check_strong_sign,
    sample_directions,
)

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(ValueError):
    pass


# the commands that solve one (m, alpha, gamma) cell; sweep runs them all
_ONE_CELL = ("state", "kkt", "regpath", "check")


def _load_config(args) -> RunConfig:
    """The RunConfig of ``args``: defaults, then the ``--config`` file, then
    the flags. A one-cell command given more than one value of a list, by
    the file or the flags, is a configuration error."""
    cfg = RunConfig()
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        known = set(vars(cfg))
        for key, val in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key: {key}")
            setattr(cfg, key, val)
    if args.example is not None:
        cfg.example = args.example
    lists = {"m_list": args.m, "alpha_list": args.alpha, "gamma_list": args.gamma}
    for key, flag in lists.items():
        if flag:
            setattr(cfg, key, list(flag))
    if args.out:
        cfg.output_dir = args.out
    try:
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if args.mode in _ONE_CELL:
        for key, flag in lists.items():
            if (flag or key in raw) and len(getattr(cfg, key)) > 1:
                raise ConfigError(f"{args.mode} solves one cell, but {key} holds "
                                  f"{len(getattr(cfg, key))} values")
    return cfg


def _finite(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):  # numpy's float64 included
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as standard JSON, a non-finite number as null (a failed
    solve can end on an infinite or NaN residual, which JSON cannot hold)."""
    path.write_text(json.dumps(_finite(obj), indent=2, allow_nan=False))


def _first_example(cfg: RunConfig):
    """(data, exact) of the configured example on the first mesh, alpha and
    gamma: the given ones, or the first of the defaults."""
    space = build_space(build_mesh(cfg.m_list[0]))
    return build_example(cfg.example, space, cfg.alpha_list[0], cfg.gamma_list[0])


def _cmd_state(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    data, exact = _first_example(cfg)
    space = data.ops.space
    prob = StateProblem(data.ops, data.f)
    u = interpolate(space, exact.u)
    y, rep = solve_state(prob, u)
    y_star = interpolate(space, exact.y)
    err = m_norm(data.ops, y.coeffs - y_star.coeffs) / m_norm(data.ops, y_star.coeffs)
    print(f"state solve: converged={rep.converged} iters={rep.iterations} rel_err={err:.6e}")
    export_vtk([("y", y)], out / "state.vtk")
    return EXIT_OK if rep.converged else EXIT_SOLVER_FAILURE


def _cmd_kkt(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    row, pt, rep = run_cell(cfg.example, cfg.m_list[0], cfg.alpha_list[0], cfg.gamma_list[0])
    print(f"kkt solve: status={row.status} iters={row.newton_iters} "
          f"err_y_rel={row.err_y_rel} err_p={row.err_p}")
    report = {
        "status": row.status,
        "iterations": row.newton_iters,
        "residual_history": rep.residual_history,
        "err_y_rel": row.err_y_rel,
        "err_p": row.err_p,
        "err_chi_linf": row.err_chi_linf,
        "failure_reason": rep.failure_reason,  # None on convergence
    }
    _write_json(out / "kkt.json", report)
    if rep.converged:
        u = recover_control(pt, cfg.alpha_list[0])
        export_vtk([("y", pt.y), ("p", pt.p), ("chi", pt.chi), ("u", u)], out / "kkt.vtk")
    return EXIT_OK if rep.converged else EXIT_SOLVER_FAILURE


def _cmd_regpath(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    data, _ = _first_example(cfg)
    path_cfg = RegPathConfig(tuple(cfg.eps_schedule))
    try:
        pt, report = run_path(data, path_cfg)
    except PathAbortedError as exc:  # the first eps failed: a report, no point
        pt, report = None, exc.report
    rows = [{"eps": e, "iterations": r.iterations, "converged": r.converged,
             "limit_residual": lr}
            for e, r, lr in zip(report.eps_values, report.inner_reports,
                                report.limit_residuals + [None] * len(report.eps_values))]
    _write_json(out / "regpath.json", {"aborted": report.aborted, "steps": rows})
    for r in rows:
        print(f"eps={r['eps']:.1e} iters={r['iterations']} limit_residual={r['limit_residual']}")
    if pt is not None:
        export_vtk([("y", pt.y), ("p", pt.p), ("chi", pt.chi)], out / "regpath.vtk")
    return EXIT_SOLVER_FAILURE if report.aborted else EXIT_OK


def _cmd_check(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    data, _ = _first_example(cfg)
    pt, rep = solve_kkt(data)
    if not rep.converged:
        print("solver did not converge; nothing to check")
        return EXIT_SOLVER_FAILURE
    chi_rep = check_chi_admissible(pt.y, pt.chi, chi_tol=1e-6)
    sign_rep = check_strong_sign(pt.y, pt.p)
    primal_rep = check_primal_stationarity(data, pt, sample_directions(data.ops.space))
    reports = {
        "bouligand_residual": check_bouligand_residual(data, pt),
        "chi_admissible": chi_rep.to_dict(),
        "strong_sign": sign_rep.to_dict(),
        "primal_stationarity": primal_rep.to_dict(),
    }
    _write_json(out / "checks.json", reports)
    for name, rep_d in reports.items():
        print(f"{name}: {rep_d}")
    ok = chi_rep.passed and sign_rep.passed and primal_rep.passed
    return EXIT_OK if ok else EXIT_SOLVER_FAILURE


def _cmd_sweep(cfg: RunConfig) -> int:
    rows, path = run_sweep(cfg, progress=lambda r: print(
        f"h={r.h:.6g} alpha={r.alpha:.3g} gamma={r.gamma:.3g} "
        f"err_y={r.err_y_rel} iters={r.newton_iters} {r.status}"))
    print(f"wrote {path}")
    converged = [r for r in rows if r.status == "converged"]
    if len({r.h for r in converged}) >= 2 and len(converged) == len(rows):
        order = estimate_order([r.h for r in converged], [r.err_y_rel for r in converged])
        print(f"fitted convergence order (y): {order:.3f}")
    return EXIT_OK


def _cmd_selftest(cfg: RunConfig) -> int:
    from .nonsmooth import SmoothedMaxParams, prox, subdiff_max_contains, verify_smoothing_assumptions

    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    gamma = 0.25
    ok = True
    for z in (-1.0, -gamma, 0.0, gamma / 2, gamma, 2 * gamma):
        for g in (0.0, 0.25, 1.0):
            lhs = subdiff_max_contains(z, g)
            rhs = z == prox(gamma, z + gamma * g)
            ok = ok and (lhs == rhs)
    report("prox/subdifferential resolvent identity", ok)

    rep = verify_smoothing_assumptions(
        SmoothedMaxParams(0.1), np.linspace(-1, 1, 2001), delta=0.5)
    report("smoothed max family assumptions", rep.passed)

    row, _, krep = run_cell(1, 9, 1e-4, 1e-4)
    report("small coupled solve (example 1, m=9)", krep.converged)
    return EXIT_OK if failures == 0 else EXIT_SOLVER_FAILURE


_COMMANDS = {
    "state": _cmd_state,
    "kkt": _cmd_kkt,
    "regpath": _cmd_regpath,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsocp",
        description="Optimal control of -Δy + max(0,y) = u + f: solvers and experiments.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--example", type=int, choices=(1, 2))
        p.add_argument("--m", type=int, action="append", help="mesh subdivisions (repeatable)")
        p.add_argument("--alpha", type=float, action="append")
        p.add_argument("--gamma", type=float, action="append")
        p.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.mode != "selftest":  # the one command that writes nothing
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:  # OSError: --config unreadable or --out not a dir
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        return _COMMANDS[args.mode](cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
