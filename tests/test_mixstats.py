"""Mixture evaluation: density, tails, moments, and log-log diagnostics."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from branchvol.branching import (
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    build_mixture,
    group_mixture,
)
from branchvol.closedform import moment_constant_a
from branchvol.mixstats import (
    LogLogSeries,
    convexity_ratio,
    density,
    exceedance,
    local_slopes,
    log_exceedance,
    loglog_series,
    mixture_abs_first_moment,
    mixture_raw_moment,
    tail_slope_estimate,
)
from branchvol.special import UnsupportedOrderError, log_erfc

mpmath.mp.dps = 50

BASE = GaussianBase(0.0, 1.0)


def _phi(mu, sigma, x):
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def _two_component(log_scale):
    # Equal weights on sigma = exp(log_scale) and sigma = 1, around mu = 0.3.
    log_scales = np.array([log_scale, 0.0])
    return MixtureDistribution(0.3, 1.0, np.exp(log_scales), log_scales, 0.5, np.zeros(2))


def _mp_grouped_density(a, n, x):
    # sum_j C(n, j) 2^-n phi(0, s_j, x) with s_j = (1+a)^j (1-a)^(n-j), in mpmath.
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    total = mpmath.mpf(0)
    for j in range(n + 1):
        s = (1 + a) ** j * (1 - a) ** (n - j)
        total += mpmath.binomial(n, j) * mpmath.exp(-x * x / (2 * s * s)) / s
    return total / (mpmath.mpf(2) ** n * mpmath.sqrt(2 * mpmath.pi))


class TestDensity:
    def test_base_gaussian_peak(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 0))
        assert math.isclose(density(mix, 0.0), 0.39894228040143268, rel_tol=1e-13)

    def test_depth_one_matches_two_term_average(self):
        mix = build_mixture(GaussianBase(0.3, 1.4), ErrorSchedule.constant(0.2, 1))
        rng = np.random.default_rng(5)
        for x in rng.uniform(-6, 6, size=100):
            expected = 0.5 * (_phi(0.3, 1.4 * 1.2, x) + _phi(0.3, 1.4 * 0.8, x))
            assert math.isclose(density(mix, float(x)), expected, rel_tol=1e-13)

    def test_peak_grows_with_depth(self):
        peaks = []
        for n in (0, 5, 10):
            mix = build_mixture(BASE, ErrorSchedule.constant(0.1, n))
            peaks.append(density(mix, 0.0))
        assert peaks[0] < peaks[1] < peaks[2]

    def test_symmetry_about_mu(self):
        mix = build_mixture(GaussianBase(0.7, 1.0), ErrorSchedule.constant(0.3, 4))
        rng = np.random.default_rng(6)
        for t in rng.uniform(0, 5, size=50):
            left = density(mix, 0.7 - float(t))
            right = density(mix, 0.7 + float(t))
            assert math.isclose(left, right, rel_tol=1e-13)

    def test_normalizes_to_one(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            n = int(rng.integers(0, 11))
            if i % 2:
                sched = ErrorSchedule.constant(float(rng.uniform(0, 0.4)), n)
            else:
                sched = ErrorSchedule.explicit(rng.uniform(0, 0.5, size=n))
            mix = build_mixture(GaussianBase(float(rng.uniform(-1, 1)), 1.0), sched)
            span = 12.0 * float(mix.component_sigmas.max())
            val, _ = integrate.quad(
                lambda x: density(mix, x), mix.mu - span, mix.mu + span, limit=300
            )
            assert abs(val - 1.0) < 1e-8

    def test_accepts_arrays(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 3))
        grid = np.linspace(-2, 2, 9)
        vals = density(mix, grid)
        assert vals.shape == grid.shape
        assert math.isclose(vals[4], density(mix, 0.0), rel_tol=1e-15)

    def test_binomial_collapse_matches_enumeration(self):
        grid = np.linspace(-5, 5, 41)
        for n in (0, 1, 6, 10):
            mix = build_mixture(BASE, ErrorSchedule.constant(0.1, n))
            direct = density(mix, grid)
            collapsed = density(group_mixture(BASE, 0.1, n), grid)
            assert np.allclose(direct, collapsed, rtol=1e-12)

    def test_binomial_collapse_deep(self):
        # Depth far beyond the enumeration ceiling still integrates to 1.
        val, _ = integrate.quad(
            lambda x: density(group_mixture(BASE, 0.1, 50), x), -200, 200, limit=500
        )
        assert abs(val - 1.0) < 1e-8

    def test_deep_grouped_density_without_overflow_warnings(self):
        # Classes with scales near e^-446 put z * z past the double range off
        # the centre; that must give 0 quietly. 1e-9: lgamma weights past n = 300.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = density(group_mixture(BASE, 0.2, 2000), [0.0, 1.0])
        for x, val in zip((0.0, 1.0), vals):
            assert math.isclose(val, float(_mp_grouped_density(0.2, 2000, x)), rel_tol=1e-9)

    def test_components_outside_the_double_range_are_kept(self):
        # sigma = e^-710 and weight e^-720 dominate nothing off the centre
        # but add e^-10 / sqrt(2 pi) at x = mu.
        log_scales = np.array([-710.0, 0.0])
        log_weights = np.array([-720.0, math.log1p(-math.exp(-720.0))])
        mix = MixtureDistribution(0.0, 1.0, np.exp(log_scales), log_scales, 1.0, log_weights)
        expected = (1.0 + math.exp(-10.0)) / math.sqrt(2.0 * math.pi)
        assert math.isclose(density(mix, 0.0), expected, rel_tol=1e-14)
        assert math.isclose(density(mix, 1.0), _phi(0.0, 1.0, 1.0), rel_tol=1e-14)

    def test_density_past_the_double_range_is_inf(self):
        # a = 0.9, n = 3000: the true density at 0 is about 2.19e2163.
        mix = group_mixture(BASE, 0.9, 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = density(mix, [0.0, 5.0])
        assert vals[0] == math.inf
        assert math.isclose(vals[1], float(_mp_grouped_density(0.9, 3000, 5.0)), rel_tol=1e-9)


class TestExceedance:
    def test_half_at_center(self):
        mix = build_mixture(GaussianBase(0.4, 2.0), ErrorSchedule.constant(0.2, 5))
        assert exceedance(mix, 0.4) == 0.5

    def test_decreasing_in_threshold(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 6))
        values = [exceedance(mix, k) for k in np.linspace(-3, 6, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_against_quadrature(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.2, 4))
        for k in (0.5, 2.0, 4.0):
            val, _ = integrate.quad(lambda x: density(mix, x), k, 60.0, limit=400)
            assert math.isclose(exceedance(mix, k), val, rel_tol=1e-9)

    def test_binomial_equivalence(self):
        for n in (0, 1, 5, 9, 12):
            for a in (0.01, 0.1, 0.3):
                mix = build_mixture(BASE, ErrorSchedule.constant(a, n))
                for k in (1.0, 3.0, 5.0, 10.0):
                    enum = exceedance(mix, k)
                    binom = exceedance(group_mixture(BASE, a, n), k)
                    assert math.isclose(enum, binom, rel_tol=1e-12), (n, a, k)

    def test_flat_rate_zero_is_plain_gaussian(self):
        ref = 0.5 * math.erfc(2.0 / math.sqrt(2))
        for n in (0, 3, 50):
            assert math.isclose(exceedance(group_mixture(BASE, 0.0, n), 2.0), ref, rel_tol=1e-12)
        # Depths past the exact-binomial limit go through lgamma weights.
        assert math.isclose(exceedance(group_mixture(BASE, 0.0, 1000), 2.0), ref, rel_tol=1e-11)

    def test_supports_very_deep_recursion(self):
        val = exceedance(group_mixture(BASE, 0.01, 10_000), 3.0)
        assert 0.0 < val < 1.0
        # More layers of uncertainty never reduce the tail.
        assert val > exceedance(group_mixture(BASE, 0.01, 100), 3.0)

    def test_grouped_scales_past_the_double_range(self):
        # Classes at both ends of depth 10^4 have scales of 0 and inf; their
        # log scales keep the tails exact.
        mix = group_mixture(BASE, 0.1, 10_000)
        assert math.isclose(exceedance(mix, 3.0), 6.264948198654956e-08, rel_tol=1e-12)
        assert math.isclose(log_exceedance(mix, 3.0), -16.585710424009633, rel_tol=1e-12)

    def test_log_exceedance_consistency(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 6))
        for k in (0.0, 1.0, 4.0):
            assert math.isclose(
                math.exp(log_exceedance(mix, k)), exceedance(mix, k), rel_tol=1e-12
            )

    def test_log_exceedance_deep_tail_against_mpmath(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 2))
        k = 48.0
        ref = mpmath.mpf(0)
        for s in mix.component_sigmas:
            ref += mpmath.erfc(k / (mpmath.sqrt(2) * mpmath.mpf(float(s)))) / 2
        ref = float(mpmath.log(ref / 4))
        val = log_exceedance(mix, k)
        assert val < -700.0
        assert math.isclose(val, ref, rel_tol=1e-12)


def _reference_log_tail(delta, log_sigma):
    # One component at a time, with the scalar log_erfc.
    if delta == 0.0:
        return math.log(0.5)
    log_abs_z = math.log(abs(delta)) - 0.5 * math.log(2.0) - log_sigma
    if log_abs_z > 300.0:
        return -math.inf if delta > 0.0 else 0.0
    return math.log(0.5) + log_erfc(math.copysign(math.exp(log_abs_z), delta))


def _reference_log_exceedance(mix, k):
    log_sigmas = (math.log(mix.sigma) + mix.log_scales).tolist()
    terms = [lw + _reference_log_tail(k - mix.mu, ls)
             for lw, ls in zip(mix.log_weights.tolist(), log_sigmas)]
    m = max(terms)
    return math.log(mix.weight) + m + math.log(math.fsum(math.exp(t - m) for t in terms))


def _reference_exceedance(mix, k):
    tails = []
    for s, ls in zip(mix.component_sigmas.tolist(), (math.log(mix.sigma) + mix.log_scales).tolist()):
        z = (k - mix.mu) / (math.sqrt(2.0) * s) if s > 0.0 else math.nan
        if math.isfinite(z):
            tails.append(0.5 * math.erfc(z))
        else:
            tails.append(math.exp(_reference_log_tail(k - mix.mu, ls)))
    weights = np.exp(mix.log_weights).tolist()
    return mix.weight * math.fsum(w * t for w, t in zip(weights, tails))


class TestTailKernel:
    """The chunked tail kernel against per-component references and mpmath."""

    def test_chunked_sums_match_per_component_reference(self):
        mixtures = (
            build_mixture(GaussianBase(0.2, 1.3), ErrorSchedule.bleed(0.25, 0.9, 13)),
            group_mixture(GaussianBase(-0.1, 0.8), 0.1, 5000),
        )
        for mix in mixtures:
            for k in (-3.0, 0.5, 3.0, 10.0, 50.0):
                assert math.isclose(log_exceedance(mix, k), _reference_log_exceedance(mix, k),
                                    rel_tol=1e-14), (mix.n_components, k)
            for k in (-3.0, 0.5, 3.0, 10.0):
                assert math.isclose(exceedance(mix, k), _reference_exceedance(mix, k),
                                    rel_tol=1e-14), (mix.n_components, k)

    def test_centre_and_far_branches_on_both_sides(self):
        # One component with sigma = e^-400: ln|z| > 300 at mu +- 1, so its
        # tail is 0 above the mean and 1 below it. At mu every tail is 1/2.
        mix = _two_component(-400.0)
        sqrt2 = mpmath.sqrt(2)
        above = mpmath.log(mpmath.erfc(1 / sqrt2) / 4)
        below = mpmath.log((1 + mpmath.erfc(-1 / sqrt2) / 2) / 2)
        assert math.isclose(log_exceedance(mix, 1.3), float(above), rel_tol=1e-15)
        assert math.isclose(log_exceedance(mix, -0.7), float(below), rel_tol=1e-14)
        assert math.isclose(log_exceedance(mix, 0.3), math.log(0.5), rel_tol=1e-15)
        # Past the double range sigma is 0, and exceedance takes the log form.
        mix = _two_component(-800.0)
        assert math.isclose(exceedance(mix, 1.3), float(mpmath.exp(above)), rel_tol=1e-15)
        assert math.isclose(exceedance(mix, -0.7), float(mpmath.exp(below)), rel_tol=1e-15)
        assert exceedance(mix, 0.3) == 0.5

    def test_readme_loglog_grid_against_mpmath(self):
        # The README loglog example: a = 0.1, N = 0, 5, 10, 25, 50, x in [2, 10].
        a = mpmath.mpf(0.1)
        worst = 0.0
        for n in (0, 5, 10, 25, 50):
            series = loglog_series(group_mixture(BASE, 0.1, n), 2.0, 10.0, 120)
            sigmas = [(1 + a) ** j * (1 - a) ** (n - j) for j in range(n + 1)]
            weights = [mpmath.binomial(n, j) / mpmath.mpf(2) ** (n + 1) for j in range(n + 1)]
            for x, log_p in zip(series.x.tolist(), series.log_p.tolist()):
                p = mpmath.fsum(w * mpmath.erfc(x / (mpmath.sqrt(2) * s))
                                for w, s in zip(weights, sigmas))
                ref = float(mpmath.log(p))
                worst = max(worst, abs(log_p - ref) / abs(ref))
        assert worst <= 4e-15


class TestConvexityRatio:
    def test_depth_zero_is_exactly_one(self):
        assert convexity_ratio(group_mixture(BASE, 0.1, 0), 5.0) == 1.0

    def test_known_cells(self):
        # Exact enumeration values for two table cells, frozen from a
        # 60-digit oracle.
        assert math.isclose(
            convexity_ratio(group_mixture(BASE, 0.01, 5), 10.0), 7.5735541819709507, rel_tol=1e-10
        )
        assert math.isclose(
            convexity_ratio(group_mixture(BASE, 0.1, 20), 10.0), 1.2097872298268169e18, rel_tol=1e-10
        )

    def test_figure_ratio_via_mixture(self):
        mix = build_mixture(GaussianBase(0.0, 1.5), ErrorSchedule.constant(0.2, 1))
        baseline = 0.5 * math.erfc(4.0 / math.sqrt(2.0))  # P(Z > 6/1.5)
        ratio = exceedance(mix, 6.0) / baseline
        assert math.isclose(ratio, 6.7781836126130498, rel_tol=1e-10)

    def test_monotone_in_depth(self):
        for a in (0.01, 0.1, 0.2):
            for k in (3.0, 5.0):
                values = [exceedance(group_mixture(BASE, a, n), k) for n in range(26)]
                assert all(x < y for x, y in zip(values, values[1:])), (a, k)

    def test_gain_region(self):
        for a in (0.01, 0.1, 0.2):
            for n in (1, 10, 25):
                assert convexity_ratio(group_mixture(BASE, a, n), 3.0) > 1.0


class TestMoments:
    def test_first_moment_is_mu(self):
        mix = build_mixture(GaussianBase(1.3, 0.7), ErrorSchedule.bleed(0.3, 0.8, 6))
        assert math.isclose(mixture_raw_moment(mix, 1), 1.3, rel_tol=1e-14)

    def test_constant_rate_closed_forms(self):
        a, n = 0.1, 8
        mix = build_mixture(BASE, ErrorSchedule.constant(a, n))
        assert math.isclose(
            mixture_raw_moment(mix, 2), (1 + a**2) ** n, rel_tol=1e-13
        )
        assert math.isclose(
            mixture_raw_moment(mix, 4), 3 * (a**4 + 6 * a**2 + 1) ** n, rel_tol=1e-13
        )

    def test_against_quadrature(self):
        mix = build_mixture(GaussianBase(0.5, 1.2), ErrorSchedule.constant(0.2, 6))
        span = 14.0 * float(mix.component_sigmas.max())
        for order in (1, 2, 3, 4, 5, 6):
            val, _ = integrate.quad(
                lambda x: x**order * density(mix, x),
                mix.mu - span,
                mix.mu + span,
                limit=400,
            )
            assert math.isclose(mixture_raw_moment(mix, order), val, rel_tol=1e-7)

    def test_deep_grouped_moments_match_closed_forms(self):
        # Past n = 5000 some classes pair an underflowing weight with an
        # overflowing scale power; the moments stay finite where the closed
        # forms are, and are inf (not nan) where those overflow.
        mix = group_mixture(BASE, 0.1, 10_000)
        for order in (2, 4):
            assert math.isclose(
                mixture_raw_moment(mix, order),
                moment_constant_a(order, 0.0, 1.0, 0.1, 10_000),
                rel_tol=1e-9,
            )
        for order in (6, 8):
            assert mixture_raw_moment(mix, order) == math.inf
            assert moment_constant_a(order, 0.0, 1.0, 0.1, 10_000) == math.inf

    def test_order_guard(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 2))
        with pytest.raises(UnsupportedOrderError):
            mixture_raw_moment(mix, 9)


class TestAbsFirstMoment:
    def test_invariance_across_schedules(self):
        rng = np.random.default_rng(21)
        root = math.sqrt(2.0 / math.pi)
        for _ in range(40):
            n = int(rng.integers(0, 11))
            sched = ErrorSchedule.explicit(rng.uniform(0, 0.9, size=n))
            mix = build_mixture(BASE, sched)
            assert math.isclose(mixture_abs_first_moment(mix), root, rel_tol=1e-12)

    def test_bleed_with_scale(self):
        mix = build_mixture(GaussianBase(0.0, 2.0), ErrorSchedule.bleed(0.2, 0.9, 10))
        assert math.isclose(
            mixture_abs_first_moment(mix), 2.0 * math.sqrt(2.0 / math.pi), rel_tol=1e-12
        )

    def test_requires_centered(self):
        mix = build_mixture(GaussianBase(0.5, 1.0), ErrorSchedule.constant(0.1, 2))
        with pytest.raises(ValueError):
            mixture_abs_first_moment(mix)


class TestGroupedEqualsEnumerated:
    """group_mixture(base, a, n) and the enumerated constant schedule are one
    distribution: every evaluator agrees at 1e-12 on random inputs."""

    def test_random_constant_schedules(self):
        rng = np.random.default_rng(2025)
        for _ in range(40):
            mu = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.2, 4.0))
            a = float(rng.uniform(0.0, 0.6))
            n = int(rng.integers(0, 13))
            base = GaussianBase(mu, sigma)
            grouped = group_mixture(base, a, n)
            enumerated = build_mixture(base, ErrorSchedule.constant(a, n))
            ctx = (mu, sigma, a, n)
            points = mu + sigma * np.array([-3.0, -0.5, 0.0, 1.0, 4.0])
            assert np.allclose(density(grouped, points), density(enumerated, points),
                               rtol=1e-12, atol=0.0), ctx
            for k in mu + sigma * np.array([-1.0, 0.5, 2.0, 5.0, 9.0]):
                k = float(k)
                assert math.isclose(exceedance(grouped, k), exceedance(enumerated, k),
                                    rel_tol=1e-12), ctx
                assert math.isclose(log_exceedance(grouped, k),
                                    log_exceedance(enumerated, k), rel_tol=1e-12), ctx
            for order in range(9):
                assert math.isclose(mixture_raw_moment(grouped, order),
                                    mixture_raw_moment(enumerated, order), rel_tol=1e-12), ctx
            centered = GaussianBase(0.0, sigma)
            assert math.isclose(
                mixture_abs_first_moment(group_mixture(centered, a, n)),
                mixture_abs_first_moment(build_mixture(centered, ErrorSchedule.constant(a, n))),
                rel_tol=1e-12,
            ), ctx


class TestLogLog:
    def test_gaussian_slope_steepens(self):
        series = loglog_series(group_mixture(BASE, 0.0, 0), 2.0, 8.0, 60)
        slopes = local_slopes(series)
        assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_flattening_with_depth(self):
        s5 = loglog_series(group_mixture(BASE, 0.1, 5), 2.0, 8.0, 60)
        s50 = loglog_series(group_mixture(BASE, 0.1, 50), 2.0, 8.0, 60)
        i = int(np.argmin(np.abs(s5.x - 6.0)))
        assert abs(tail_slope_estimate(s50, i - 2, i + 3)) < abs(
            tail_slope_estimate(s5, i - 2, i + 3)
        )

    def test_deep_recursion_dominates_everywhere(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 12))
        base_series = loglog_series(group_mixture(BASE, 0.1, 0), 3.0, 9.0, 30)
        deep_series = loglog_series(mix, 3.0, 9.0, 30)
        assert np.all(deep_series.log_p > base_series.log_p)
        # Still deeper recursion keeps lifting the tail (binomial path).
        deeper = loglog_series(group_mixture(BASE, 0.1, 25), 3.0, 9.0, 30)
        assert np.all(deeper.log_p > deep_series.log_p)

    def test_exact_power_law_slope(self):
        x = np.exp(np.linspace(math.log(2), math.log(50), 40))
        series = LogLogSeries(x=x, log_x=np.log(x), log_p=-2.0 * np.log(x))
        assert abs(tail_slope_estimate(series, 0, 40) + 2.0) < 1e-9
        assert np.max(np.abs(local_slopes(series) + 2.0)) < 1e-9

    def test_gaussian_window_slope_is_steep(self):
        series = loglog_series(group_mixture(BASE, 0.0, 0), 4.0, 6.0, 20)
        assert tail_slope_estimate(series, 0, 20) < -10.0

    def test_mixture_and_collapse_agree(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 8))
        s_enum = loglog_series(mix, 2.0, 8.0, 15)
        s_binom = loglog_series(group_mixture(BASE, 0.1, 8), 2.0, 8.0, 15)
        assert np.allclose(s_enum.log_p, s_binom.log_p, rtol=1e-12)

    def test_grid_validation(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 2))
        with pytest.raises(ValueError):
            loglog_series(mix, -1.0, 5.0, 10)
        with pytest.raises(ValueError):
            loglog_series(mix, 3.0, 2.0, 10)
        with pytest.raises(ValueError):
            loglog_series(mix, 2.0, 5.0, 1)

    def test_degenerate_window(self):
        series = loglog_series(group_mixture(BASE, 0.1, 3), 2.0, 6.0, 10)
        with pytest.raises(ValueError):
            tail_slope_estimate(series, 0, 2)
