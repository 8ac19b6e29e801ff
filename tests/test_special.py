"""Checks for the scalar special functions against independent oracles
(stdlib math, mpmath at 50 digits, and adaptive quadrature)."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from branchvol.special import (
    INFINITY,
    DivergenceError,
    UnsupportedOrderError,
    erfc,
    erfc_array,
    gaussian_abs_first_moment,
    gaussian_raw_moment,
    log_erfc,
    log_erfc_array,
    q_pochhammer,
)

mpmath.mp.dps = 50


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_deep_value_against_high_precision_oracle(self):
        # 50-digit oracle value for erfc(10); far below 1e-44 and positive.
        ref = 2.0884875837625448e-45
        val = erfc(10.0)
        assert 0.0 < val < 1e-44
        assert math.isclose(val, ref, rel_tol=1e-12)

    def test_upper_tail_of_standard_normal(self):
        # P(Z > 4) = 0.5 erfc(4/sqrt 2), checked against adaptive quadrature
        # of the normal density over [4, 44].
        quad, err = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), 4.0, 44.0
        )
        assert err < 1e-10
        val = 0.5 * erfc(4.0 / math.sqrt(2.0))
        assert math.isclose(val, quad, rel_tol=1e-9)
        assert math.isclose(val, 3.1671241833119921e-05, rel_tol=1e-12)

    def test_relative_error_on_working_range(self):
        # Dense grid against the stdlib implementation.
        for z in np.arange(0.0, 10.0 + 1e-9, 0.01):
            ref = math.erfc(z)
            assert math.isclose(erfc(float(z)), ref, rel_tol=1e-12), z

    def test_against_mpmath_spot_grid(self):
        for z in (0.3, 0.9, 1.5, 1.999, 2.0, 2.001, 3.7, 5.5, 8.0, 10.0):
            ref = float(mpmath.erfc(z))
            assert math.isclose(erfc(z), ref, rel_tol=5e-13), z

    def test_reflection(self):
        for z in (0.1, 0.7, 1.3, 2.5, 4.0):
            assert erfc(-z) == 2.0 - erfc(z)

    def test_erf_complement_identity(self):
        # erfc(z) + erf(z) = 1 with erf from the stdlib.
        for z in np.linspace(-6.0, 6.0, 241):
            assert abs(erfc(float(z)) + math.erf(float(z)) - 1.0) < 1e-13

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                erfc(bad)


class TestLogErfc:
    def test_matches_log_of_erfc_in_range(self):
        for z in (-3.0, -0.5, 0.0, 0.5, 1.9, 2.0, 5.0, 15.0, 25.0):
            assert math.isclose(log_erfc(z), math.log(math.erfc(z)), rel_tol=1e-12), z

    def test_far_tail_against_mpmath(self):
        for z in (30.0, 100.0, 1000.0):
            ref = float(mpmath.log(mpmath.erfc(z)))
            assert math.isclose(log_erfc(z), ref, rel_tol=1e-13), z

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_erfc(math.inf)


def _mp_log_erfc(z: float) -> float:
    return float(mpmath.log(mpmath.erfc(mpmath.mpf(z))))


class TestArrayForms:
    """erfc_array and log_erfc_array against 50-digit mpmath, on both sides
    of the switch between ln(erfc) and the continued fraction."""

    def _check_log_erfc(self, grid, tol):
        arr = log_erfc_array(grid)
        for z, from_array in zip(grid.tolist(), arr.tolist()):
            ref = _mp_log_erfc(z)
            bound = tol * max(1.0, abs(ref))
            assert abs(log_erfc(z) - ref) <= bound, z
            assert abs(from_array - ref) <= bound, z

    def test_log_erfc_dense_grid(self):
        # Absolute error near z = 0, where ln erfc crosses 0; relative beyond.
        self._check_log_erfc(np.linspace(-6.0, 25.0, 3101), 5e-16)

    def test_log_erfc_across_the_switch_point(self):
        self._check_log_erfc(np.linspace(24.0, 26.0, 401), 5e-16)

    def test_log_erfc_far_tail(self):
        self._check_log_erfc(np.geomspace(25.0, 1e130, 400), 5e-16)

    def test_erfc_array_matches_scalar_with_exact_reflection(self):
        grid = np.linspace(-8.0, 27.0, 701)
        arr = erfc_array(grid)
        assert arr.tolist() == [erfc(z) for z in grid.tolist()]
        positive = grid > 0.0
        assert np.array_equal(erfc_array(-grid[positive]), 2.0 - arr[positive])

    def test_empty_arrays(self):
        assert erfc_array(np.empty(0)).shape == (0,)
        assert log_erfc_array(np.empty(0)).shape == (0,)


class TestGaussianRawMoment:
    def test_known_values(self):
        assert gaussian_raw_moment(2, 0.0, 1.0) == 1.0
        assert gaussian_raw_moment(4, 0.0, 2.0) == 48.0
        assert gaussian_raw_moment(3, 1.0, 1.0) == 4.0  # mu^3 + 3 mu sigma^2
        assert gaussian_raw_moment(0, 3.0, 2.0) == 1.0

    def test_odd_orders_vanish_exactly_when_centered(self):
        for order in (1, 3, 5, 7):
            assert gaussian_raw_moment(order, 0.0, 1.7) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = float(rng.uniform(-2.0, 2.0))
            sigma = float(rng.uniform(0.3, 2.5))
            for order in range(9):
                val, err = integrate.quad(
                    lambda x: x**order
                    * math.exp(-0.5 * ((x - mu) / sigma) ** 2)
                    / (sigma * math.sqrt(2 * math.pi)),
                    mu - 15 * sigma,
                    mu + 15 * sigma,
                    limit=200,
                )
                ref = gaussian_raw_moment(order, mu, sigma)
                assert math.isclose(ref, val, rel_tol=1e-9, abs_tol=1e-9), (order, mu, sigma)

    def test_rejects_bad_orders_and_scale(self):
        with pytest.raises(UnsupportedOrderError):
            gaussian_raw_moment(9, 0.0, 1.0)
        with pytest.raises(UnsupportedOrderError):
            gaussian_raw_moment(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_raw_moment(2, 0.0, 0.0)


class TestGaussianAbsFirstMoment:
    def test_values(self):
        assert math.isclose(gaussian_abs_first_moment(1.0), 0.79788456080286536, rel_tol=1e-15)
        assert math.isclose(gaussian_abs_first_moment(2.5), 2.5 * 0.79788456080286536, rel_tol=1e-15)

    def test_vanishes_in_small_scale_limit(self):
        assert gaussian_abs_first_moment(1e-300) < 1e-299

    def test_matches_quadrature(self):
        val, _ = integrate.quad(
            lambda x: abs(x) * math.exp(-0.5 * (x / 1.3) ** 2) / (1.3 * math.sqrt(2 * math.pi)),
            -20.0,
            20.0,
            limit=200,
        )
        assert math.isclose(gaussian_abs_first_moment(1.3), val, rel_tol=1e-9)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            gaussian_abs_first_moment(0.0)
        with pytest.raises(ValueError):
            gaussian_abs_first_moment(-1.0)


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.3, 0.5, 0) == 1.0

    def test_zero_head_is_identity(self):
        assert q_pochhammer(0.0, 0.9, INFINITY) == 1.0

    def test_infinite_product_against_direct_iteration(self):
        # Independent oracle: plain running product until the factor is 1.
        expected = 1.0
        i = 0
        while True:
            f = 1.0 + 0.04 * 0.81**i
            if f == 1.0:
                break
            expected *= f
            i += 1
        val = q_pochhammer(-0.04, 0.81, INFINITY)
        assert math.isclose(val, expected, rel_tol=1e-10)
        assert math.isclose(val, 1.2315142313388336, rel_tol=1e-9)

    def test_recurrence(self):
        # (a; q)_{n+1} = (a; q)_n * (1 - a q^n) over random parameters.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = float(rng.uniform(-1.0, 1.0))
            q = float(rng.uniform(-0.99, 0.99))
            n = int(rng.integers(0, 51))
            lhs = q_pochhammer(a, q, n + 1)
            rhs = q_pochhammer(a, q, n) * (1.0 - a * q**n)
            assert math.isclose(lhs, rhs, rel_tol=1e-14, abs_tol=1e-300), (a, q, n)

    def test_q_of_one_allowed_for_finite_n(self):
        assert math.isclose(q_pochhammer(-0.04, 1.0, 5), 1.04**5, rel_tol=1e-14)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            q_pochhammer(0.5, 1.0, INFINITY)
        with pytest.raises(DivergenceError):
            q_pochhammer(0.5, -1.2, INFINITY)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            q_pochhammer(0.5, 0.5, -1)
        with pytest.raises(ValueError):
            q_pochhammer(0.5, 0.5, 2.5)
