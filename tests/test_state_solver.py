import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from nsocp import regpath, sparse_core, state_solver
from nsocp.examples import build_example1, build_example2
from nsocp.fe_mesh import SineSeed, assemble_operators, build_mesh, build_space, interpolate
from nsocp.regpath import RegPathConfig, verify_lemma_rate
from nsocp.state_solver import (
    StateProblem,
    apply_Gchi,
    check_symmetric_derivative,
    directional_derivative,
    finite_difference_check,
    gateaux_zero_fraction,
    m_norm,
    newton,
    solve_state,
    solve_state_regularized,
)
from nsocp.kkt_solver import solve_kkt
from nsocp.sparse_core import SingularMatrixError, refine
from nsocp.stationarity import check_primal_stationarity, sample_directions

PI = np.pi


@pytest.fixture(scope="module")
def space33():
    return build_space(build_mesh(33))


@pytest.fixture(scope="module")
def ex1_33(space33):
    return build_example1(space33)


@pytest.fixture(scope="module")
def prob1_33(ex1_33):
    data, _ = ex1_33
    return StateProblem(data.ops, data.f)


def poisson_solve(ops, rhs_coeffs):
    """Independent linear path: (A) y = M g via scipy."""
    from scipy.sparse.linalg import spsolve
    return spsolve(ops.A.tocsc(), ops.M @ rhs_coeffs)


def piecewise_linear_problem(n: int, seed: int, nan_at=None, singular_at=None):
    """Residual A x + d max(0, x) - b with a Newton step, on random data.

    The residual call with index ``nan_at`` returns NaNs and the step call
    with index ``singular_at`` raises SingularMatrixError; both indices are
    the Newton iteration at which the call happens.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 2 * n * np.eye(n)
    d = rng.uniform(0.0, 1.0, n)
    b = rng.standard_normal(n)
    calls = {"residual": 0, "step": 0}

    def residual(x):
        k = calls["residual"]
        calls["residual"] += 1
        r = a @ x + d * np.maximum(x, 0.0) - b
        return r * np.nan if k == nan_at else r

    def step(x, r):
        k = calls["step"]
        calls["step"] += 1
        if k == singular_at:
            raise SingularMatrixError(3)
        return np.linalg.solve(a + np.diag(d * (x > 0)), -r)

    return residual, step, calls


class TestNewtonDriver:
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           tol=st.floats(1e-14, 1.0), max_iter=st.integers(0, 8),
           nan_at=st.none() | st.integers(0, 8),
           singular_at=st.none() | st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_report_contract(self, n, seed, tol, max_iter, nan_at, singular_at):
        residual, step, calls = piecewise_linear_problem(n, seed, nan_at, singular_at)
        _, rep = newton(np.zeros(n), residual, step, tol, max_iter)
        history = rep.residual_history
        assert rep.iterations == len(history) - 1 <= max_iter
        if rep.converged:
            assert history[-1] <= tol and rep.failure_reason is None
        else:
            assert rep.failure_reason
        if singular_at is not None and calls["step"] > singular_at:
            assert rep.failure_reason == str(SingularMatrixError(3))
            assert rep.iterations == singular_at
        if nan_at is not None and calls["residual"] > nan_at:
            assert rep.failure_reason == "non-finite residual"
            assert rep.iterations == nan_at

    def test_stops_at_first_non_finite_residual(self):
        residual, step, calls = piecewise_linear_problem(3, 0, nan_at=1)
        x, rep = newton(np.zeros(3), residual, step, 1e-300, 50)
        assert not rep.converged
        assert rep.failure_reason == "non-finite residual"
        assert rep.iterations == 1 and calls == {"residual": 2, "step": 1}
        assert np.isfinite(rep.residual_history[0]) and np.isnan(rep.residual_history[1])

    def test_singular_step_ends_the_run(self):
        residual, step, calls = piecewise_linear_problem(3, 0, singular_at=0)
        x, rep = newton(np.zeros(3), residual, step, 1e-12, 50)
        assert not rep.converged and rep.iterations == 0
        assert rep.failure_reason == "matrix is singular (deficient pivot in row 3)"
        assert np.array_equal(x, np.zeros(3))

    def test_converges_on_piecewise_linear_problem(self):
        residual, step, _ = piecewise_linear_problem(4, 5)
        x, rep = newton(np.zeros(4), residual, step, 1e-12, 50)
        assert rep.converged and rep.failure_reason is None
        assert np.linalg.norm(residual(x)) <= 1e-12


class TestSolveState:
    def test_zero_data(self, prob1_33, space33):
        prob = StateProblem(prob1_33.ops, space33.zero())
        y, rep = solve_state(prob, space33.zero())
        assert rep.converged
        assert rep.iterations <= 1
        assert np.allclose(y.coeffs, 0.0)

    def test_example1_accuracy(self, prob1_33, ex1_33, space33):
        _, exact = ex1_33
        y, rep = solve_state(prob1_33, space33.zero())
        assert rep.converged
        y_star = interpolate(space33, exact.y)
        rel33 = m_norm(prob1_33.ops, y.coeffs - y_star.coeffs) / m_norm(prob1_33.ops, y_star.coeffs)
        assert rel33 < 1e-2
        # second-order accuracy: error drops by ~4 when h halves
        space65 = build_space(build_mesh(65))
        data65, exact65 = build_example1(space65)
        prob65 = StateProblem(data65.ops, data65.f)
        y65, rep65 = solve_state(prob65, space65.zero())
        assert rep65.converged
        y_star65 = interpolate(space65, exact65.y)
        rel65 = m_norm(data65.ops, y65.coeffs - y_star65.coeffs) / m_norm(data65.ops, y_star65.coeffs)
        assert rel33 / rel65 == pytest.approx(4.0, rel=0.3)

    def test_negative_state_equals_poisson_path(self, space33):
        # exact solution -sin(pi x1) sin(pi x2) <= 0: the max term vanishes
        # and the nonlinear solve must agree with a plain Poisson solve
        ops = assemble_operators(space33)
        g = interpolate(space33, lambda x1, x2: -2 * PI * PI * np.sin(PI * x1) * np.sin(PI * x2))
        prob = StateProblem(ops, space33.zero())
        y, rep = solve_state(prob, g)
        assert rep.converged
        y_lin = poisson_solve(ops, g.coeffs)
        assert np.allclose(y.coeffs, y_lin, atol=1e-12)

    def test_residual_tolerance(self, prob1_33, space33):
        ops = prob1_33.ops
        y, rep = solve_state(prob1_33, space33.zero())
        b = ops.M @ prob1_33.f.coeffs
        r = ops.A @ y.coeffs + ops.d * np.maximum(0, y.coeffs) - b
        assert np.linalg.norm(r) <= 1e-12 * max(1.0, np.linalg.norm(b))


class TestRegularized:
    def test_zero_data(self, space33):
        ops = assemble_operators(space33)
        prob = StateProblem(ops, space33.zero())
        y, rep = solve_state_regularized(prob, space33.zero(), 1e-2)
        assert rep.converged and np.allclose(y.coeffs, 0.0)

    def test_gap_shrinks_linearly(self, prob1_33, space33):
        y, _ = solve_state(prob1_33, space33.zero())
        gaps = []
        eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
        for eps in eps_list:
            ye, rep = solve_state_regularized(prob1_33, space33.zero(), eps)
            assert rep.converged
            gaps.append(m_norm(prob1_33.ops, ye.coeffs - y.coeffs))
        slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
        assert slope >= 0.9

    def test_inactive_smoothing_exact(self, space33):
        # state below -eps everywhere: the smoothed term vanishes identically
        ops = assemble_operators(space33)
        g = interpolate(space33, lambda x1, x2: -2 * PI * PI * np.sin(PI * x1) * np.sin(PI * x2))
        prob = StateProblem(ops, space33.zero())
        y_eps, rep = solve_state_regularized(prob, g, eps=1e-3)
        assert rep.converged
        assert np.allclose(y_eps.coeffs, poisson_solve(ops, g.coeffs), atol=1e-12)


class TestInitialPoint:
    def test_solution_as_init_takes_no_step(self, prob1_33, ex1_33, space33):
        u = interpolate(space33, ex1_33[1].u)
        y, rep = solve_state(prob1_33, u)
        y2, rep2 = solve_state(prob1_33, u, init=y)
        assert rep.converged and rep.iterations >= 1
        assert rep2.converged and rep2.iterations == 0
        assert np.array_equal(y2.coeffs, y.coeffs) and y2.coeffs is not y.coeffs

    @pytest.mark.parametrize("solve", [
        lambda prob, u, init: solve_state(prob, u, init=init),
        lambda prob, u, init: solve_state_regularized(prob, u, 1e-3, init=init),
    ], ids=["exact", "regularized"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_init_rejected(self, prob1_33, space33, solve, bad):
        y0 = np.zeros(space33.n)
        y0[space33.n // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(prob1_33, space33.zero(), space33.function(y0))

    @pytest.mark.parametrize("solve", [solve_state,
                                       lambda prob, u, init: solve_state_regularized(
                                           prob, u, 1e-3, init)], ids=["exact", "regularized"])
    def test_init_on_other_space_rejected(self, prob1_33, space33, solve):
        other = build_space(build_mesh(33))  # same size, another space
        with pytest.raises(ValueError, match="space"):
            solve(prob1_33, space33.zero(), other.zero())


class TestDirectionalDerivative:
    def test_zero_direction(self, prob1_33, space33):
        y, _ = solve_state(prob1_33, space33.zero())
        d, rep = directional_derivative(prob1_33, y, space33.zero())
        assert rep.converged and np.allclose(d.coeffs, 0.0)

    def test_linear_regime_matches_direct_solve(self, space33):
        from scipy.sparse.linalg import spsolve
        ops = assemble_operators(space33)
        prob = StateProblem(ops, space33.zero())
        y = space33.function(np.ones(space33.n))  # strictly positive everywhere
        rng = np.random.default_rng(5)
        h = space33.function(rng.standard_normal(space33.n))
        d, rep = directional_derivative(prob, y, h)
        assert rep.converged
        import scipy.sparse as sp
        jac = ops.A + sp.diags(ops.d)
        d_direct = spsolve(jac.tocsc(), ops.M @ h.coeffs)
        assert np.allclose(d.coeffs, d_direct, atol=1e-10)

    def test_positive_homogeneity(self, prob1_33, space33):
        y, _ = solve_state(prob1_33, space33.zero())
        rng = np.random.default_rng(11)
        for _ in range(3):
            h = space33.function(rng.standard_normal(space33.n))
            d1, _ = directional_derivative(prob1_33, y, h)
            h2 = space33.function(2.0 * h.coeffs)
            d2, _ = directional_derivative(prob1_33, y, h2)
            assert np.allclose(d2.coeffs, 2.0 * d1.coeffs, atol=1e-9)


class TestFiniteDifference:
    def test_smooth_regime_near_zero_error(self, prob1_33, space33):
        rng = np.random.default_rng(2)
        h = space33.function(rng.standard_normal(space33.n))
        rep = finite_difference_check(prob1_33, space33.zero(), h,
                                      [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        assert rep.final_ok
        assert rep.monotone

    def test_example2_state(self):
        space = build_space(build_mesh(17))
        data, exact = build_example2(space)
        prob = StateProblem(data.ops, data.f)
        u = interpolate(space, exact.u)
        rng = np.random.default_rng(9)
        h = space.function(rng.standard_normal(space.n))
        rep = finite_difference_check(prob, u, h, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        assert rep.final_ok

    def test_bad_t_list(self, prob1_33, space33):
        with pytest.raises(ValueError):
            finite_difference_check(prob1_33, space33.zero(), space33.zero(), [1e-3, 1e-2])

    @pytest.mark.parametrize("counting_splu", [state_solver], indirect=True,
                             ids=["state_solver"])
    def test_warm_start_matches_cold_start(self, counting_splu, monkeypatch):
        space = build_space(build_mesh(33))
        data, exact = build_example2(space)
        prob = StateProblem(data.ops, data.f)
        u = interpolate(space, exact.u)
        rng = np.random.default_rng(4)
        h = space.function(rng.standard_normal(space.n))
        t_list = [1e-2, 1e-3, 1e-4, 1e-5]
        steps = []
        solve = state_solver.solve_state

        def counting(prob, u, init=None):
            y, rep = solve(prob, u, init)
            steps.append(rep.iterations)
            return y, rep

        monkeypatch.setattr(state_solver, "solve_state", counting)
        warm = finite_difference_check(prob, u, h, t_list)
        warm_steps = sum(steps)
        monkeypatch.setattr(state_solver, "solve_state",
                            lambda prob, u, init=None: counting(prob, u))
        cold = finite_difference_check(prob, u, h, t_list)
        assert warm_steps < sum(steps) - warm_steps
        # every step of either was refined from the stiffness seed
        assert counting_splu.calls == 0
        assert (warm.final_ok, warm.monotone) == (cold.final_ok, cold.monotone) == (True, True)
        assert warm.errors[:2] == pytest.approx(cold.errors[:2], rel=1e-6)


class TestGateauxFraction:
    def test_example1_state_never_zero(self, space33, ex1_33):
        _, exact = ex1_33
        y = interpolate(space33, exact.y)
        assert gateaux_zero_fraction(y) == 0.0

    def test_example2_half_zero(self):
        space = build_space(build_mesh(33))
        _, exact = build_example2(space)
        y = interpolate(space, exact.y)
        assert gateaux_zero_fraction(y) == pytest.approx(0.5, abs=0.02)

    def test_constant_one(self, space33):
        y = space33.function(np.ones(space33.n))
        assert gateaux_zero_fraction(y) == 0.0


class TestApplyGchi:
    def test_chi_zero_is_poisson(self, space33):
        ops = assemble_operators(space33)
        h = interpolate(space33, lambda x1, x2: 2 * PI * PI * np.sin(PI * x1) * np.sin(PI * x2))
        eta = apply_Gchi(ops, space33.zero(), h)
        target = interpolate(space33, lambda x1, x2: np.sin(PI * x1) * np.sin(PI * x2))
        rel = m_norm(ops, eta.coeffs - target.coeffs) / m_norm(ops, target.coeffs)
        assert rel < 5e-3  # O(h^2)

    def test_chi_one_matches_linear_derivative(self, space33):
        ops = assemble_operators(space33)
        prob = StateProblem(ops, space33.zero())
        rng = np.random.default_rng(17)
        h = space33.function(rng.standard_normal(space33.n))
        chi1 = space33.function(np.ones(space33.n))
        eta = apply_Gchi(ops, chi1, h)
        y_pos = space33.function(np.ones(space33.n))
        d, _ = directional_derivative(prob, y_pos, h)
        assert np.allclose(eta.coeffs, d.coeffs, atol=1e-10)

    def test_self_adjoint(self, space33):
        ops = assemble_operators(space33)
        rng = np.random.default_rng(23)
        chi = space33.function(rng.uniform(0, 1, space33.n))
        h1 = space33.function(rng.standard_normal(space33.n))
        h2 = space33.function(rng.standard_normal(space33.n))
        e1 = apply_Gchi(ops, chi, h1)
        e2 = apply_Gchi(ops, chi, h2)
        m = ops.M
        lhs = (m @ h2.coeffs) @ e1.coeffs
        rhs = (m @ h1.coeffs) @ e2.coeffs
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_invalid_chi_rejected(self, space33):
        ops = assemble_operators(space33)
        bad = space33.function(np.full(space33.n, 1.5))
        with pytest.raises(ValueError):
            apply_Gchi(ops, bad, space33.zero())

    def test_nan_chi_rejected(self, space33):
        ops = assemble_operators(space33)
        c = np.full(space33.n, 0.5)
        c[7] = np.nan
        with pytest.raises(ValueError, match=r"chi must take values in \[0, 1\]"):
            apply_Gchi(ops, space33.function(c), space33.zero())


class TestOrderedSolve:
    @pytest.mark.parametrize("m", [5, 9, 17])
    def test_matches_dense_solve(self, m, monkeypatch):
        space = build_space(build_mesh(m))
        ops = assemble_operators(space)
        rng = np.random.default_rng(m)
        c = rng.uniform(0.0, 1.0, space.n)
        rhs = rng.standard_normal(space.n)
        factorised = []

        def recording_splu(k, **kwargs):
            factorised.append((k.toarray(), kwargs))
            return splu(k, **kwargs)

        splu = state_solver.splu
        monkeypatch.setattr(state_solver, "splu", recording_splu)
        x = state_solver._lu_solve(ops, c, rhs)
        dense = ops.A.toarray() + np.diag(c)
        want = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        # rows and columns in nested-dissection order, no column reordering
        (k, kwargs), = factorised
        order = space.nd_order
        assert np.array_equal(k, dense[np.ix_(order, order)])
        assert kwargs["permc_spec"] == "NATURAL"

    @pytest.mark.parametrize("m", [5, 17, 33])
    def test_factorises_the_reference_matrix_exactly(self, m, monkeypatch):
        # the LU fall-back factorises (A + diag(c))[nd][:, nd] as it is stored
        space = build_space(build_mesh(m))
        ops = assemble_operators(space)
        rng = np.random.default_rng(m)
        c = ops.d * (rng.uniform(0.0, 1.0, space.n) > 0.5) * rng.uniform(0.0, 1.0, space.n)
        factorised = []

        def recording_splu(k, **kwargs):
            factorised.append(k)
            return splu(k, **kwargs)

        splu = state_solver.splu
        monkeypatch.setattr(state_solver, "splu", recording_splu)
        state_solver._lu_solve(ops, c, np.ones(space.n))
        order = space.nd_order
        want = (ops.A + sp.diags(c))[order][:, order].tocsc()
        (k,) = factorised
        assert k.format == "csc" and k.shape == want.shape
        assert np.array_equal(k.indptr, want.indptr)
        assert np.array_equal(k.indices, want.indices)
        assert np.array_equal(k.data, want.data)


class _CountingSplu:
    """Stand-in for a module's ``splu`` that counts the factorisations."""

    def __init__(self, splu):
        self.splu = splu
        self.calls = 0

    def __call__(self, k, **kwargs):
        self.calls += 1
        return self.splu(k, **kwargs)


@pytest.fixture
def forward_seeds(monkeypatch):
    """Weak references to the seed of each forward solve."""
    refs = []

    def recording(space):
        seed = SineSeed(space)
        refs.append(weakref.ref(seed))
        return seed

    monkeypatch.setattr(state_solver, "SineSeed", recording)
    return refs


class TestSeededForwardSolves:
    """Every forward step is refined from the stiffness seed, a solve of A by
    the sine transform of the grid; a declined refinement falls back to LU."""

    @pytest.fixture(scope="class")
    def ex1_17_solution(self):
        space = build_space(build_mesh(17))
        data, _ = build_example1(space)
        pt, rep = solve_kkt(data)
        assert rep.converged
        return data, pt, sample_directions(space, n_random=20)

    def test_primal_stationarity_makes_no_lu(self, ex1_17_solution, forward_seeds,
                                             monkeypatch):
        data, pt, dirs = ex1_17_solution
        assert len(dirs) == 25
        counting = _CountingSplu(state_solver.splu)
        monkeypatch.setattr(state_solver, "splu", counting)
        rep = check_primal_stationarity(data, pt, dirs)
        assert rep.passed and len(rep.values) == 50
        assert counting.calls == 0 and len(forward_seeds) == 50
        # nothing is held once the call has returned
        gc.collect()
        assert all(ref() is None for ref in forward_seeds)

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([3, 5, 9, 17, 33]),
           kind=st.sampled_from(["zero", "d", "half", "uniform"]),
           seed=st.integers(0, 2**16))
    def test_refines_to_shifted_stiffness(self, m, kind, seed):
        # A + diag(c) for every kind of c a forward solve makes, 0 <= c <= d
        ops = assemble_operators(build_space(build_mesh(m)))
        n, d = ops.space.n, ops.d
        rng = np.random.default_rng(seed)
        c = {"zero": 0.0 * d, "d": d, "half": d * (rng.uniform(size=n) < 0.5),
             "uniform": d * rng.uniform(size=n)}[kind]
        k = (ops.A + sp.diags(c)).tocsc()
        b = rng.standard_normal(n)
        x = refine(SineSeed(ops.space), k, b)
        ref = spsolve(k, b)
        assert x is not None
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [9, 33, 65])
    def test_refines_to_a(self, m):
        # the seed solves A exactly up to float32 rounding, which A amplifies
        # by at most its condition number cot^2(pi / 2m) (0.003-0.09 eps32
        # cond(A) measured), and refinement from it solves A to float64
        # accuracy
        ops = assemble_operators(build_space(build_mesh(m)))
        b = np.random.default_rng(m).standard_normal(ops.space.n)
        ref = spsolve(ops.A.tocsc(), b)
        seed = SineSeed(ops.space)
        bound = 8 * np.finfo(np.float32).eps / np.tan(np.pi / (2 * m)) ** 2
        assert np.max(np.abs(seed.solve(b) - ref)) <= bound * np.max(np.abs(ref))
        x = refine(seed, ops.A, b)
        assert x is not None
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_declined_refinement_falls_back_to_lu(self, monkeypatch):
        space = build_space(build_mesh(17))
        data, exact = build_example2(space)
        prob = StateProblem(data.ops, data.f)
        u = interpolate(space, exact.u)
        chi = space.function(np.linspace(0.0, 1.0, space.n))
        h = space.function(np.random.default_rng(6).standard_normal(space.n))
        y, rep = solve_state(prob, u)
        eta = apply_Gchi(data.ops, chi, h)
        counting = _CountingSplu(state_solver.splu)
        monkeypatch.setattr(state_solver, "splu", counting)
        monkeypatch.setattr(sparse_core, "MAX_CORRECTIONS", 0)  # every refinement declines
        y_lu, rep_lu = solve_state(prob, u)
        eta_lu = apply_Gchi(data.ops, chi, h)
        assert counting.calls == rep_lu.iterations + 1  # one LU per step, and apply_Gchi's
        assert (rep.converged, rep.iterations) == (rep_lu.converged, rep_lu.iterations)
        for got, want in ((y, y_lu), (eta, eta_lu)):
            assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-12 * np.linalg.norm(want.coeffs)

    def test_certify_calls_make_no_forward_lu(self, monkeypatch):
        space = build_space(build_mesh(33))
        data, _ = build_example1(space)
        prob = StateProblem(data.ops, data.f)
        forward = _CountingSplu(state_solver.splu)
        path = _CountingSplu(sparse_core.splu)
        monkeypatch.setattr(state_solver, "splu", forward)
        monkeypatch.setattr(sparse_core, "splu", path)
        pt, report = regpath.run_path(data, RegPathConfig(tuple(10.0 ** -k for k in range(1, 7))))
        assert not report.aborted and path.calls == 0
        h = space.function(np.random.default_rng(7).standard_normal(space.n))
        assert finite_difference_check(prob, space.zero(), h, [1e-1, 1e-2, 1e-3]).final_ok
        check_primal_stationarity(data, pt, sample_directions(space, n_random=2))
        assert not verify_lemma_rate(prob, space.zero(), [1e-1, 1e-2, 1e-3]).degenerate
        assert forward.calls == 0


class TestSymmetricDerivative:
    def test_positive_state(self, space33):
        ops = assemble_operators(space33)
        # u chosen so the state is strictly positive: y = sin sin solves
        # -lap y + y = g with g = (2 pi^2 + 1) sin sin > 0
        g = interpolate(space33, lambda x1, x2: (2 * PI * PI + 1) * np.sin(PI * x1) * np.sin(PI * x2))
        prob = StateProblem(ops, space33.zero())
        rng = np.random.default_rng(3)
        h = space33.function(rng.standard_normal(space33.n))
        assert check_symmetric_derivative(prob, g, h)

    def test_negative_state(self, space33):
        ops = assemble_operators(space33)
        g = interpolate(space33, lambda x1, x2: -2 * PI * PI * np.sin(PI * x1) * np.sin(PI * x2))
        prob = StateProblem(ops, space33.zero())
        rng = np.random.default_rng(4)
        h = space33.function(rng.standard_normal(space33.n))
        assert check_symmetric_derivative(prob, g, h)

    def test_fat_zero_set_breaks_symmetry(self):
        from scipy.sparse.linalg import spsolve
        space = build_space(build_mesh(17))
        data, exact = build_example2(space)
        ops = data.ops
        prob = StateProblem(ops, data.f)
        # construct u whose exact discrete state has a fat zero set
        y_c = interpolate(space, exact.y)
        msp = ops.M
        u_c = spsolve(msp.tocsc(),
                      ops.A @ y_c.coeffs + ops.d * np.maximum(0, y_c.coeffs))
        u_c = space.function(u_c - data.f.coeffs)
        rng = np.random.default_rng(8)
        pts = space.mesh.vertices[space.interior_nodes]
        hvals = np.where(pts[:, 0] >= 0.5, rng.standard_normal(space.n), 0.0)
        h = space.function(hvals)
        assert not check_symmetric_derivative(prob, u_c, h, zero_tol=1e-9)


class TestLipschitzAndMonotone:
    def test_discrete_lipschitz_bound(self):
        space = build_space(build_mesh(9))
        ops = assemble_operators(space)
        prob = StateProblem(ops, space.zero())
        rng = np.random.default_rng(99)
        a = ops.A
        c_p = 1.0 / (np.sqrt(2.0) * PI)
        for _ in range(10):
            u1 = space.function(rng.standard_normal(space.n))
            u2 = space.function(rng.standard_normal(space.n))
            y1, r1 = solve_state(prob, u1)
            y2, r2 = solve_state(prob, u2)
            assert r1.converged and r2.converged
            dy = y1.coeffs - y2.coeffs
            grad_norm = np.sqrt(dy @ (a @ dy))
            du = m_norm(ops, u1.coeffs - u2.coeffs)
            assert grad_norm <= c_p * du + 1e-12

    def test_maximum_principle_smoke(self):
        space = build_space(build_mesh(9))
        ops = assemble_operators(space)
        prob = StateProblem(ops, space.zero())
        rng = np.random.default_rng(5)
        u = space.function(rng.uniform(0, 5, space.n))
        y, rep = solve_state(prob, u)
        assert rep.converged
        assert np.all(y.coeffs >= -1e-12)
