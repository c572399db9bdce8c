import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsocp import nonsmooth
from nsocp.nonsmooth import (
    SmoothedMaxParams,
    max0,
    prox,
    prox_active,
    smoothed_max,
    smoothed_max_prime,
    subdiff_max_contains,
    verify_smoothing_assumptions,
)


class TestMax0:
    @pytest.mark.parametrize("x,expected", [(-1.0, 0.0), (0.0, 0.0), (2.5, 2.5)])
    def test_values(self, x, expected):
        assert max0(x) == expected


class TestSubdiff:
    def test_negative_needs_zero(self):
        assert subdiff_max_contains(-1.0, 0.0)
        assert not subdiff_max_contains(-1.0, 0.5)

    def test_zero_accepts_interval(self):
        assert subdiff_max_contains(0.0, 0.37)
        assert subdiff_max_contains(0.0, 0.0)
        assert subdiff_max_contains(0.0, 1.0)
        assert not subdiff_max_contains(0.0, 1.1)

    def test_positive_needs_one(self):
        assert not subdiff_max_contains(1.0, 0.5)
        assert subdiff_max_contains(1.0, 1.0)


class TestProx:
    @pytest.mark.parametrize("x,expected", [(-1.0, -1.0), (0.25, 0.0), (1.0, 0.5)])
    def test_branches(self, x, expected):
        assert prox(0.5, x) == expected

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            prox(0.0, 1.0)
        with pytest.raises(ValueError):
            prox(-1.0, 1.0)
        for gamma in (np.nan, np.inf):
            with pytest.raises(ValueError):
                prox(gamma, 1.0)
            with pytest.raises(ValueError):
                prox_active(gamma, 1.0)

    @pytest.mark.parametrize("x,expected", [(-0.1, True), (0.3, False), (0.5, False),
                                            (0.0, False), (0.6, True)])
    def test_active_set(self, x, expected):
        # boundary of [0, gamma] counts as inactive
        assert prox_active(0.5, x) is expected

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 3))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_and_monotone(self, a, b, gamma):
        pa, pb = prox(gamma, a), prox(gamma, b)
        assert abs(pa - pb) <= abs(a - b) + 1e-15
        if a <= b:
            assert pa <= pb + 1e-15


# dyadic sampling keeps every arithmetic operation in the identity exact
dyadic = st.integers(-2 ** 21, 2 ** 21).map(lambda k: k / 2 ** 20)
dyadic_g = st.integers(0, 2 ** 10).map(lambda k: k / 2 ** 10)
pow2_gamma = st.integers(-8, 2).map(lambda k: 2.0 ** k)


class TestResolventIdentity:
    @given(dyadic, dyadic_g, pow2_gamma)
    @settings(max_examples=500, deadline=None)
    def test_subdiff_iff_prox_fixed_point(self, z, g, gamma):
        assert subdiff_max_contains(z, g) == (z == prox(gamma, z + gamma * g))

    def test_exhaustive_sign_patterns(self):
        gamma = 0.25
        for z in (-1.0, -gamma, 0.0, gamma / 2, gamma, 2 * gamma):
            for g in (0.0, 0.25, 1.0):
                assert subdiff_max_contains(z, g) == (z == prox(gamma, z + gamma * g))


class TestSmoothedMax:
    @pytest.mark.parametrize("x,expected", [(-1.0, 0.0), (0.05, 0.0125), (1.0, 0.95)])
    def test_values(self, x, expected):
        assert smoothed_max(SmoothedMaxParams(0.1), x) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("x,expected", [(-0.5, 0.0), (0.05, 0.5), (0.2, 1.0)])
    def test_prime_values(self, x, expected):
        assert smoothed_max_prime(SmoothedMaxParams(0.1), x) == expected

    def test_eps_validation(self):
        for eps in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                SmoothedMaxParams(eps)

    def test_uniform_bound_halves_with_eps(self):
        grid = np.linspace(-1, 1, 4001)
        for eps in (0.2, 0.1, 0.05):
            gap = np.max(np.abs(smoothed_max(SmoothedMaxParams(eps), grid) - max0(grid)))
            assert gap <= eps / 2 + 1e-15
            assert gap >= eps / 2 - 1e-3  # attained near the kink

    def test_prime_is_derivative(self):
        p = SmoothedMaxParams(0.1)
        step = 1e-6
        for x in (-0.5, 0.03, 0.07, 0.5):  # away from the kinks 0 and eps
            fd = (smoothed_max(p, x + step) - smoothed_max(p, x - step)) / (2 * step)
            assert fd == pytest.approx(smoothed_max_prime(p, x), abs=1e-9)


class TestVerifyAssumptions:
    def test_all_pass(self):
        rep = verify_smoothing_assumptions(
            SmoothedMaxParams(0.1), np.arange(-1, 1 + 1e-9, 1e-3), delta=0.5)
        assert rep.passed
        assert rep.violations == []

    def test_saturation_not_asserted_when_delta_small(self):
        # delta < eps: the uniform-saturation check does not apply, and the
        # remaining checks still pass
        rep = verify_smoothing_assumptions(
            SmoothedMaxParams(0.1), np.arange(-1, 1 + 1e-9, 1e-3), delta=0.05)
        assert rep.passed

    def test_corrupted_prime_flagged(self, monkeypatch):
        orig = nonsmooth.smoothed_max_prime

        def clamped(p, x):
            return np.minimum(orig(p, x), 0.9)

        monkeypatch.setattr(nonsmooth, "smoothed_max_prime", clamped)
        rep = verify_smoothing_assumptions(
            SmoothedMaxParams(0.1), np.arange(-1, 1 + 1e-9, 1e-3), delta=0.5)
        assert not rep.passed
        assert any("1" in v for v in rep.violations)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_smoothing_assumptions(SmoothedMaxParams(0.1), [])
