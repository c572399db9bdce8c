"""The benchmark's workloads: their inputs, one timed pass, and its checks.

Each workload has three steps:

* ``setup(seed, smoke)`` builds the inputs the timed pass is given;
* ``run(inputs, out_dir)`` is the timed pass. It makes the workload's
  top-level calls into ``nsocp`` and keeps each result, or the exception
  the call raised, so that one failing call does not stop the others;
* ``check(inputs, results, outcomes)`` grades the results. Every graded
  outcome counts as attempted, and a wrong or raised one as failed.

Calls go through module attributes (``kkt_solver.solve_kkt``), never through
names bound at import, so that the tracer's wrappers see them.
``smoke=True`` selects the reduced sizes the benchmark's own tests use.
"""

from __future__ import annotations

import csv
import traceback
from pathlib import Path

import numpy as np

from nsocp import examples, fe_mesh, harness, kkt_solver, regpath, state_solver, stationarity

# (err_y_rel, err_p) rows of the paper's Table 1 (example 1, alpha = gamma = 1e-4)
# and Table 2 (example 2, alpha = 1e-4, gamma = 1e-12), keyed by m.
TABLE1 = {33: (1.152e-3, 1.036e-5), 65: (2.962e-4, 2.679e-6),
          129: (7.515e-5, 6.809e-7), 257: (1.893e-5, 1.716e-7)}
TABLE2 = {33: (0.8709, 0.01606), 65: (0.2281, 4.541e-3),
          129: (0.05821, 1.209e-3), 257: (0.01469, 3.119e-4)}

SWEEP_GAMMAS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-14]
# gamma cells whose err_y_rel must match the gamma = 1e-12 cell
GAMMA_MATCH = [1e-8, 1e-10, 1e-14]
FD_T_LIST = [1e-2, 1e-3, 1e-4, 1e-5]
LEMMA_EPS = [10.0 ** -k for k in range(1, 5)]


class Outcomes:
    """Counts checked outcomes; an exception counts as a failed outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, predicate) -> None:
        """Grade one outcome now; ``predicate`` runs before this returns."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a raised call or check is a failed outcome
            ok = False
            name = f"{name}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(name)


def _call(results: dict, key: str, fn, *args, **kwargs) -> None:
    """One top-level call; its exception is kept as the result."""
    try:
        results[key] = fn(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc()
        results[key] = exc


def _get(results: dict, key: str):
    value = results[key]
    if isinstance(value, Exception):
        raise value
    return value


def _within_factor_2(value, target) -> bool:
    return value is not None and target / 2.0 <= value <= 2.0 * target


def _space(m: int):
    return fe_mesh.build_space(fe_mesh.build_mesh(m))


# ---------------------------------------------------------------- kkt-fine

class KktFine:
    """One KKT solve of example 1 at alpha = gamma = 1e-4 on the finest mesh."""

    name = "kkt-fine"

    def setup(self, seed: int, smoke: bool = False):
        m = 33 if smoke else 257
        data, exact = examples.build_example(1, _space(m), 1e-4, 1e-4)
        return {"m": m, "data": data, "exact": exact}

    def run(self, inputs, out_dir: Path) -> dict:
        results = {}
        _call(results, "solve", kkt_solver.solve_kkt, inputs["data"])
        return results

    def newton_iters(self, results) -> int:
        return _get(results, "solve")[1].iterations

    def check(self, inputs, results, outcomes: Outcomes) -> None:
        def solve_ok():
            pt, rep = _get(results, "solve")
            if not rep.converged:
                return False
            data, exact, space = inputs["data"], inputs["exact"], pt.y.space
            y_star = fe_mesh.interpolate(space, exact.y).coeffs
            p_star = fe_mesh.interpolate(space, exact.p).coeffs
            err_y = (state_solver.m_norm(data.ops, pt.y.coeffs - y_star)
                     / state_solver.m_norm(data.ops, y_star))
            err_p = state_solver.m_norm(data.ops, pt.p.coeffs - p_star)
            t_y, t_p = TABLE1[inputs["m"]]
            return _within_factor_2(err_y, t_y) and _within_factor_2(err_p, t_p)
        outcomes.check(f"solve_kkt example 1 m={inputs['m']}", solve_ok)


# ------------------------------------------------------------ sweep-coarse

class SweepCoarse:
    """Three ``run_sweep`` calls over the coarse meshes, failing cells included."""

    name = "sweep-coarse"

    def setup(self, seed: int, smoke: bool = False):
        ms = [33] if smoke else [33, 65]
        # m = 65, gamma = 1e-6 is the cell that ends on a singular pivot
        ms_gamma = [65] if smoke else [33, 65]
        m_alpha = 33 if smoke else 65
        gammas = [1e-6, 1e-12] if smoke else SWEEP_GAMMAS
        alphas = [1e-2] if smoke else [1e-2, 1e-6]
        cfgs = {
            "table1": harness.RunConfig(example=1, m_list=ms, alpha_list=[1e-4],
                                        gamma_list=[1e-4]),
            "gamma": harness.RunConfig(example=2, m_list=ms_gamma, alpha_list=[1e-4],
                                       gamma_list=gammas),
            "alpha": harness.RunConfig(example=2, m_list=[m_alpha], alpha_list=alphas,
                                       gamma_list=[1e-12]),
        }
        return {"configs": cfgs}

    def run(self, inputs, out_dir: Path) -> dict:
        results = {}
        for key, cfg in inputs["configs"].items():
            cfg.output_dir = str(out_dir / key)
            _call(results, key, harness.run_sweep, cfg)
        return results

    def newton_iters(self, results) -> int:
        return sum(row.newton_iters for key in results for row in _get(results, key)[0])

    @staticmethod
    def _expected_status(alpha: float, gamma: float) -> str:
        return "no_conv" if gamma == 1e-6 or alpha == 1e-6 else "converged"

    def check(self, inputs, results, outcomes: Outcomes) -> None:
        for key, cfg in inputs["configs"].items():
            cells = [(m, a, g) for m in cfg.m_list for a in cfg.alpha_list
                     for g in cfg.gamma_list]

            def csv_ok():
                rows, path = _get(results, key)
                with open(path, newline="") as fh:
                    table = list(csv.reader(fh))
                return (len(rows) == len(cells) and table[0] == harness.CSV_HEADER
                        and table[1:] == [r.as_csv() for r in rows])
            outcomes.check(f"{key}: csv", csv_ok)

            for k, (m, alpha, gamma) in enumerate(cells):
                def cell_ok():
                    row = _get(results, key)[0][k]
                    if row.status != self._expected_status(alpha, gamma):
                        return False
                    if cfg.example == 1:
                        table = TABLE1
                    elif alpha == 1e-4 and gamma == 1e-12:
                        table = TABLE2
                    else:
                        return True
                    t_y, t_p = table[m]
                    return _within_factor_2(row.err_y_rel, t_y) and \
                        _within_factor_2(row.err_p, t_p)
                outcomes.check(f"{key}: m={m} alpha={alpha:g} gamma={gamma:g}", cell_ok)

        cfg = inputs["configs"]["gamma"]
        for m in cfg.m_list:
            for gamma in [g for g in GAMMA_MATCH if g in cfg.gamma_list]:
                def match_ok():
                    by_cell = {(r.h, r.gamma): r for r in _get(results, "gamma")[0]}
                    ref = by_cell[(1.0 / m, 1e-12)].err_y_rel
                    err = by_cell[(1.0 / m, gamma)].err_y_rel
                    return abs(err - ref) <= 1e-5 * ref
                outcomes.check(f"gamma: m={m} gamma={gamma:g} matches 1e-12", match_ok)


# ---------------------------------------------------------------- certify

class Certify:
    """Continuation path, primal stationarity and VTK output for both examples,
    then finite-difference checks of the directional derivative and the
    smoothing rate. Only the n x n and 2n x 2n systems are factorised."""

    name = "certify"

    def setup(self, seed: int, smoke: bool = False):
        m = 33 if smoke else 65  # odd, as example 1 requires
        n_random = 2 if smoke else 20
        rng = np.random.default_rng(seed)
        inputs = {"examples": {}, "eps": tuple(harness.RunConfig().eps_schedule)}
        for example in (1, 2):
            space = _space(m)
            data, exact = examples.build_example(example, space, 1e-4,
                                                 1e-4 if example == 1 else 1e-12)
            dirs = stationarity.sample_directions(space, n_random=n_random,
                                                  seed=int(rng.integers(2 ** 31)))
            inputs["examples"][example] = (data, exact, dirs)
        data2, exact2, _ = inputs["examples"][2]
        space2 = data2.ops.space
        inputs["fd"] = [space2.function(rng.standard_normal(space2.n)) for _ in range(3)]
        inputs["fd_u"] = fe_mesh.interpolate(space2, exact2.u)
        inputs["fd_prob"] = state_solver.StateProblem(data2.ops, data2.f)
        data1 = inputs["examples"][1][0]
        inputs["lemma_prob"] = state_solver.StateProblem(data1.ops, data1.f)
        inputs["lemma_u"] = data1.ops.space.zero()
        return inputs

    def run(self, inputs, out_dir: Path) -> dict:
        results = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        path_cfg = regpath.RegPathConfig(inputs["eps"])
        for example, (data, _, dirs) in inputs["examples"].items():
            _call(results, f"path{example}", regpath.run_path, data, path_cfg)
            if isinstance(results[f"path{example}"], Exception):
                continue
            pt = results[f"path{example}"][0]
            _call(results, f"primal{example}", stationarity.check_primal_stationarity,
                  data, pt, dirs)
            vtk = out_dir / f"example{example}.vtk"
            results[f"vtk_path{example}"] = vtk
            _call(results, f"vtk{example}", fe_mesh.export_vtk,
                  [("y", pt.y), ("p", pt.p), ("chi", pt.chi)], vtk)
        for k, h in enumerate(inputs["fd"]):
            _call(results, f"fd{k}", state_solver.finite_difference_check,
                  inputs["fd_prob"], inputs["fd_u"], h, FD_T_LIST)
        _call(results, "lemma", regpath.verify_lemma_rate,
              inputs["lemma_prob"], inputs["lemma_u"], LEMMA_EPS)
        return results

    def newton_iters(self, results) -> int:
        return sum(rep.iterations for example in (1, 2)
                   for rep in _get(results, f"path{example}")[1].inner_reports)

    def check(self, inputs, results, outcomes: Outcomes) -> None:
        for example in inputs["examples"]:
            def path_ok():
                report = _get(results, f"path{example}")[1]
                res = report.limit_residuals
                decreasing = all(b < a for a, b in zip(res, res[1:]))
                return not report.aborted and (example != 1 or decreasing)
            outcomes.check(f"example {example}: regularization path", path_ok)
            outcomes.check(f"example {example}: primal stationarity",
                           lambda: _get(results, f"primal{example}").passed)

            def vtk_ok():
                _get(results, f"vtk{example}")
                mesh = _get(results, f"path{example}")[0].y.space.mesh
                nv, nt = len(mesh.vertices), len(mesh.triangles)
                with open(results[f"vtk_path{example}"]) as fh:
                    n_lines = sum(1 for _ in fh)
                # header 5, points nv, cells 1 + nt, types 1 + nt, data 1 + 3 (2 + nv)
                return n_lines == 5 + nv + 2 * (1 + nt) + 1 + 3 * (2 + nv)
            outcomes.check(f"example {example}: vtk export", vtk_ok)
        for k in range(len(inputs["fd"])):
            outcomes.check(f"finite-difference check {k}",
                           lambda: _get(results, f"fd{k}").final_ok)

        def lemma_ok():
            rep = _get(results, "lemma")
            return not rep.degenerate and rep.slope >= 0.9
        outcomes.check("smoothing rate", lemma_ok)


WORKLOADS = {w.name: w for w in (KktFine(), SweepCoarse(), Certify())}
