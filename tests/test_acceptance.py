"""Acceptance gate: end-to-end checks of the published behavior.

Each test prints one PASS/FAIL line per criterion (visible in the live
pytest stream even under output capture).
"""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import build_mesh, build_space, interpolate
from nsocp.harness import estimate_order, run_cell
from nsocp.kkt_solver import KktPoint, solve_kkt
from nsocp.nonsmooth import prox, subdiff_max_contains
from nsocp.regpath import RegPathConfig, run_path, verify_lemma_rate
from nsocp.state_solver import (
    StateProblem,
    check_symmetric_derivative,
    finite_difference_check,
    gateaux_zero_fraction,
    m_norm,
    solve_state,
)
from nsocp.stationarity import (
    check_bouligand_residual,
    check_chi_admissible,
    check_primal_stationarity,
    check_strong_sign,
    sample_directions,
)

M_LIST = [33, 65, 129, 257]

TABLE1_ERR_Y = [1.152e-3, 2.962e-4, 7.515e-5, 1.893e-5]
TABLE1_ERR_P = [1.036e-5, 2.679e-6, 6.809e-7, 1.716e-7]
TABLE2_ERR_Y = [0.8709, 0.2281, 0.05821, 0.01469]
TABLE2_ERR_P = [0.01606, 4.541e-3, 1.209e-3, 3.119e-4]


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, emitted outside pytest's capture."""
    def _report(number: int, name: str, ok: bool) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def within_factor_2(value, target):
    return target / 2.0 <= value <= 2.0 * target


@pytest.fixture(scope="module")
def table1():
    start = time.perf_counter()
    rows = [run_cell(1, m, 1e-4, 1e-4)[0] for m in M_LIST]
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def table2():
    return [run_cell(2, m, 1e-4, 1e-12) for m in M_LIST]


def test_criterion_1_table1_reproduction(report, table1):
    rows, elapsed = table1
    ok = all(r.status == "converged" and r.newton_iters <= 6 for r in rows)
    ok = ok and all(within_factor_2(r.err_y_rel, t)
                    for r, t in zip(rows, TABLE1_ERR_Y))
    ok = ok and all(within_factor_2(r.err_p, t)
                    for r, t in zip(rows, TABLE1_ERR_P))
    ok = ok and elapsed <= 300.0
    report(1, "smooth-example error table (4 meshes, factor-2 band)", ok)


def test_criterion_2_convergence_order(report, table1):
    rows, _ = table1
    slope = estimate_order([r.h for r in rows], [r.err_y_rel for r in rows])
    report(2, f"quadratic convergence order (fitted slope {slope:.3f})",
           1.7 <= slope <= 2.3)


def test_criterion_3_table2_reproduction(report, table2):
    rows = [r for r, _, _ in table2]
    ok = all(r.status == "converged" and r.newton_iters <= 6 for r in rows)
    ok = ok and all(within_factor_2(r.err_y_rel, t)
                    for r, t in zip(rows, TABLE2_ERR_Y))
    ok = ok and all(within_factor_2(r.err_p, t)
                    for r, t in zip(rows, TABLE2_ERR_P))
    report(3, "degenerate-example error table (4 meshes, factor-2 band)", ok)


def test_criterion_4_gamma_robustness(report, table2):
    ref = table2[2][0]  # m = 129 at gamma = 1e-12
    ok = ref.status == "converged"
    for gamma in (1e-10, 1e-14):
        row, _, _ = run_cell(2, 129, 1e-4, gamma)
        ok = ok and row.status == "converged"
        ok = ok and abs(row.err_y_rel - ref.err_y_rel) / ref.err_y_rel <= 1e-5
    for gamma in (1e-6, 1e-8):
        row, _, rep = run_cell(2, 129, 1e-4, gamma)
        ok = ok and row.status == "no_conv" and rep.iterations <= 25
    report(4, "prox-parameter robustness (tiny gamma) and clean failure "
              "(moderate gamma)", ok)


def test_criterion_5_alpha_sweep(report):
    row_large, _, _ = run_cell(2, 129, 1e-2, 1e-12)
    ok = (row_large.status == "converged" and row_large.newton_iters <= 4
          and within_factor_2(row_large.err_y_rel, 3.007e-3))
    row_small, _, _ = run_cell(2, 129, 1e-6, 1e-12)
    ok = ok and row_small.status == "no_conv"
    report(5, "cost-weight sweep (alpha=1e-2 fast, alpha=1e-6 divergent)", ok)


def test_criterion_6_resolvent_identity(report):
    gamma = 0.25
    ok = all(
        subdiff_max_contains(z, g) == (z == prox(gamma, z + gamma * g))
        for z in (-1.0, -gamma, 0.0, gamma / 2, gamma, 2 * gamma)
        for g in (0.0, 0.25, 1.0)
    )
    # random samples on dyadic rationals keep every operation exact
    rng = np.random.default_rng(20240824)
    for _ in range(10_000):
        z = int(rng.integers(-2 ** 21, 2 ** 21 + 1)) / 2 ** 20
        g = int(rng.integers(0, 2 ** 10 + 1)) / 2 ** 10
        gm = 2.0 ** int(rng.integers(-8, 3))
        ok = ok and (subdiff_max_contains(z, g) == (z == prox(gm, z + gm * g)))
    report(6, "prox/subdifferential resolvent identity (exhaustive + 1e4 "
              "random)", ok)


def test_criterion_7_smoothing_rate(report):
    space = build_space(build_mesh(65))
    data, _ = build_example1(space)
    prob = StateProblem(data.ops, data.f)
    rep = verify_lemma_rate(prob, space.zero(), [10.0 ** -k for k in range(1, 5)])
    ok = not rep.degenerate and rep.slope is not None and rep.slope >= 0.9
    report(7, f"smoothed-state O(eps) rate (fitted slope "
              f"{rep.slope if rep.slope else float('nan'):.3f})", ok)


def test_criterion_8_directional_derivative(report):
    ok = True
    t_list = [1e-2, 1e-3, 1e-4, 1e-5]
    for example in (1, 2):
        space = build_space(build_mesh(33))
        build = build_example1 if example == 1 else build_example2
        data, exact = build(space)
        prob = StateProblem(data.ops, data.f)
        u = interpolate(space, exact.u)
        rng = np.random.default_rng(100 + example)
        for _ in range(5):
            h = space.function(rng.standard_normal(space.n))
            rep = finite_difference_check(prob, u, h, t_list)
            ok = ok and rep.final_ok

    # symmetry holds where the state has an empty zero band ...
    space = build_space(build_mesh(33))
    data1, exact1 = build_example1(space)
    prob1 = StateProblem(data1.ops, data1.f)
    u1 = interpolate(space, exact1.u)
    y1, _ = solve_state(prob1, u1)
    rng = np.random.default_rng(7)
    h = space.function(rng.standard_normal(space.n))
    ok = ok and gateaux_zero_fraction(y1) == 0.0
    ok = ok and check_symmetric_derivative(prob1, u1, h)

    # ... and breaks on a state vanishing on half the nodes
    space_f = build_space(build_mesh(17))
    data2, exact2 = build_example2(space_f)
    prob2 = StateProblem(data2.ops, data2.f)
    y_c = interpolate(space_f, exact2.y)
    u_c = spsolve(data2.ops.M.to_scipy().tocsc(),
                  data2.ops.A.to_scipy() @ y_c.coeffs
                  + data2.ops.d * np.maximum(0.0, y_c.coeffs))
    u_c = space_f.function(u_c - data2.f.coeffs)
    rng = np.random.default_rng(8)
    pts = space_f.mesh.vertices[space_f.interior_nodes]
    h_f = space_f.function(np.where(pts[:, 0] >= 0.5,
                                    rng.standard_normal(space_f.n), 0.0))
    ok = ok and not check_symmetric_derivative(prob2, u_c, h_f, zero_tol=1e-9)
    report(8, "finite-difference oracle and Gateaux symmetry boundary", ok)


def test_criterion_9_cross_solver_agreement(report):
    space = build_space(build_mesh(33))
    data, _ = build_example1(space)
    pt_path, path_rep = run_path(
        data, RegPathConfig(tuple(10.0 ** -k for k in range(1, 7))))
    pt_kkt, kkt_rep = solve_kkt(data)
    ok = kkt_rep.converged and not path_rep.aborted
    ok = ok and m_norm(data.ops, pt_path.y.coeffs - pt_kkt.y.coeffs) <= 1e-4
    ok = ok and m_norm(data.ops, pt_path.p.coeffs - pt_kkt.p.coeffs) <= 1e-4
    res = path_rep.limit_residuals
    ok = ok and all(b < a for a, b in zip(res, res[1:]))
    report(9, "continuation path agrees with the direct solver", ok)


def test_criterion_10_stationarity_hierarchy(report, table2):
    _, pt, rep = table2[0]  # m = 33
    space = pt.y.space
    data, _ = build_example2(space)
    ok = rep.converged
    ok = ok and check_chi_admissible(pt.y, pt.chi, chi_tol=1e-6).passed
    ok = ok and check_bouligand_residual(data, pt) <= 1e-10
    sign = check_strong_sign(pt.y, pt.p)
    ok = ok and sign.passed and sign.n_violations == 0
    primal = check_primal_stationarity(data, pt,
                                       sample_directions(space, n_random=5),
                                       tol=1e-8)
    ok = ok and primal.passed

    # fault injection: each perturbation must trip exactly its own check
    bad_chi = space.function(pt.chi.coeffs.copy())
    bad_chi.coeffs[0] = -0.5
    ok = ok and not check_chi_admissible(pt.y, bad_chi, chi_tol=1e-6).passed

    bad_y = space.function(pt.y.coeffs + 1e-3)
    ok = ok and check_bouligand_residual(
        data, KktPoint(bad_y, pt.p, pt.chi)) > 1e-10

    # the interpolated exact state vanishes identically on the right half;
    # a positive adjoint planted there violates the sign condition
    _, exact = build_example2(space)
    y_star = interpolate(space, exact.y)
    zero_node = int(np.flatnonzero(y_star.coeffs == 0.0)[0])
    bad_p = space.function(pt.p.coeffs.copy())
    bad_p.coeffs[zero_node] = 1.0
    # sign_tol above the O(h^2) adjoint discretization error separates the
    # clean point from the corrupted one
    ok = ok and check_strong_sign(y_star, pt.p, sign_tol=1e-4).passed
    ok = ok and not check_strong_sign(y_star, bad_p, sign_tol=1e-4).passed

    shifted = KktPoint(pt.y, space.function(pt.p.coeffs + 0.01), pt.chi)
    ok = ok and not check_primal_stationarity(
        data, shifted, sample_directions(space, n_random=5), tol=1e-8).passed
    report(10, "stationarity hierarchy and fault injection", ok)


def test_criterion_11_lipschitz_bound(report):
    space = build_space(build_mesh(33))
    data, _ = build_example1(space)
    ops = data.ops
    prob = StateProblem(ops, space.zero())
    a = ops.A.to_scipy()
    c_lip = 1.0 / (np.sqrt(2.0) * np.pi)
    rng = np.random.default_rng(20240501)
    ok = True
    for _ in range(100):
        u1 = space.function(rng.standard_normal(space.n))
        u2 = space.function(rng.standard_normal(space.n))
        y1, r1 = solve_state(prob, u1)
        y2, r2 = solve_state(prob, u2)
        ok = ok and r1.converged and r2.converged
        dy = y1.coeffs - y2.coeffs
        grad = float(np.sqrt(max(dy @ (a @ dy), 0.0)))
        ok = ok and grad <= c_lip * m_norm(ops, u1.coeffs - u2.coeffs) + 1e-12
    report(11, "discrete Lipschitz/Poincare bound on 100 random pairs", ok)
