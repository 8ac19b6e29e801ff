"""Checks for the special functions against independent oracles
(stdlib math, mpmath at 50 digits, and adaptive quadrature)."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from branchvol.special import (
    _LOG_ERFC_SWITCH,
    _erfc_cf,
    erfc,
    gaussian_abs_first_moment,
    log_erfc,
    scale_mixture_moment,
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
    """erfc and log_erfc over arrays against 50-digit mpmath, on both sides
    of the switch between ln(erfc) and the continued fraction."""

    def _check_log_erfc(self, grid, tol):
        arr = log_erfc(grid)
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
        arr = erfc(grid)
        assert arr.tolist() == [erfc(z) for z in grid.tolist()]
        positive = grid > 0.0
        assert np.array_equal(erfc(-grid[positive]), 2.0 - arr[positive])

    def test_float_in_float_out_array_in_array_out(self):
        # One evaluator per function: a float gives the matching array element.
        grid = np.linspace(-6.0, 40.0, 2301)
        for fn in (erfc, log_erfc):
            arr = fn(grid)
            assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
            scalars = [fn(z) for z in grid.tolist()]
            assert all(type(v) is float for v in scalars)
            assert arr.tolist() == scalars

    def test_arrays_with_a_non_finite_element_are_rejected(self):
        for fn in (erfc, log_erfc):
            with pytest.raises(ValueError, match="finite argument, got nan"):
                fn(np.array([0.5, math.nan, 1.0]))

    def test_empty_arrays(self):
        assert erfc(np.empty(0)).shape == (0,)
        assert log_erfc(np.empty(0)).shape == (0,)


def _reference_erfc(z):
    # erfc as the kernel took it before the reflection became conditional:
    # math.erfc of |z| for every element, then the reflection everywhere.
    e = np.fromiter(map(math.erfc, np.abs(z).tolist()), np.float64, z.size)
    return np.where(z < 0.0, 2.0 - e, e)


def _reference_log_erfc(z):
    # log_erfc's formulas with the switch point tested per element.
    far = z >= _LOG_ERFC_SWITCH
    out = np.empty(z.shape)
    out[~far] = np.log(_reference_erfc(z[~far]))
    zf = z[far]
    out[far] = -zf * zf - 0.5 * math.log(math.pi) + np.log(_erfc_cf(zf))
    return out


class TestFixedCost:
    """The finiteness, sign and switch tests are made once per call; every
    element keeps the bits of the per-element formulas."""

    @staticmethod
    def _seeded_arrays():
        rng = np.random.default_rng(23)
        switch = _LOG_ERFC_SWITCH
        near = [np.nextafter(switch, -math.inf), switch, np.nextafter(switch, math.inf)]
        specials = np.array([0.0, -0.0] + near)
        for size in (1, 2, 8, 300, 4097):
            for lo, hi in ((-6.0, 30.0), (0.0, 24.9), (24.0, 60.0), (-30.0, -1e-300)):
                x = rng.uniform(lo, hi, size)
                yield x
                if size > 1:
                    x = x.copy()
                    picks = rng.integers(0, size, min(size, 5))
                    x[picks] = rng.choice(specials, picks.size)
                    yield x
        yield specials
        yield np.array([-0.0])
        yield np.array(near)

    def test_bits_match_the_per_element_formulas(self):
        for x in self._seeded_arrays():
            assert [v.hex() for v in erfc(x).tolist()] == [
                v.hex() for v in _reference_erfc(x).tolist()], x
            assert [v.hex() for v in log_erfc(x).tolist()] == [
                v.hex() for v in _reference_log_erfc(x).tolist()], x
            for z in x[:3].tolist():
                assert erfc(z).hex() == _reference_erfc(np.array([z]))[0].hex()
                assert log_erfc(z).hex() == _reference_log_erfc(np.array([z]))[0].hex()

    def test_a_non_finite_element_anywhere_is_named(self):
        for bad in (math.nan, math.inf, -math.inf):
            for where in (0, 3, 7):
                x = np.linspace(-1.0, 30.0, 8)
                x[where] = bad
                for fn in (erfc, log_erfc):
                    with pytest.raises(ValueError, match=f"finite argument, got {bad!r}"):
                        fn(x)


def gaussian_raw_moment(order, mu, sigma):
    # A scale mixture whose scale is 1: every closed form's raw moment
    # formula, reduced to a single Gaussian.
    return scale_mixture_moment(order, mu, sigma, lambda m: 1.0)


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

