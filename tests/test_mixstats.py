"""Mixture evaluation: density, tails, moments, and log-log diagnostics."""

import gc
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from branchvol.branching import (
    BinomialClasses,
    EnumerationLimitError,
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    build_mixture,
    group_mixture,
)
from branchvol import cli, mixstats, montecarlo
from branchvol._checks import LN_MAX
from branchvol.closedform import schedule_moments
from branchvol.mixstats import (
    LogLogSeries,
    convexity_ratio,
    density,
    exceedance,
    local_slopes,
    log_exceedance,
    loglog_series,
    mixture_abs_first_moment,
    mixture_raw_moments,
    tail_slope_estimate,
)
from branchvol.montecarlo import SampleSpec, sample
from branchvol.special import UnsupportedOrderError, log_erfc, scale_mixture_moment

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
            span = 12.0 * float((mix.sigma * mix.scales).max())
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

    @pytest.mark.parametrize("mix", [
        build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 13)),
        group_mixture(BASE, 0.2, 5000),
    ], ids=["enumerated", "grouped"])
    def test_grid_equals_pointwise_bit_for_bit(self, mix):
        # Each point keeps its own sum in the same order however the grid
        # is split into blocks.
        grid = np.linspace(-6.0, 6.0, 301)
        pointwise = [density(mix, float(x)) for x in grid]
        assert np.array_equal(density(mix, grid), pointwise)

    def test_fine_grid_memory_is_bounded(self):
        # 40001 points x 256 components: unblocked temporaries took 235 MB.
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 8))
        grid = np.linspace(-4.0, 4.0, 40001)
        tracemalloc.start()
        try:
            density(mix, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("s", [1e-300, 1e300, 1e-303])
    def test_scale_invariance_past_the_linear_range(self, s):
        # density(sigma = s, s x) s = density(sigma = 1, x). At 1e-303 some
        # sigmas leave the linear range and are summed in log space; at
        # 1e-305 the density itself leaves the double range.
        schedule = ErrorSchedule.bleed(0.3, 0.9, 12)
        grid = np.linspace(-4.0, 4.0, 17)
        unit = density(build_mixture(BASE, schedule), grid)
        scaled = density(build_mixture(GaussianBase(0.0, s), schedule), s * grid) * s
        np.testing.assert_allclose(scaled, unit, rtol=1e-14, atol=0.0)

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
        # the centre; that must give 0 quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = density(group_mixture(BASE, 0.2, 2000), [0.0, 1.0])
        for x, val in zip((0.0, 1.0), vals):
            assert math.isclose(val, float(_mp_grouped_density(0.2, 2000, x)), rel_tol=1e-12)

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
        assert math.isclose(vals[1], float(_mp_grouped_density(0.9, 3000, 5.0)), rel_tol=1e-12)


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
        # Depths past the exact-binomial limit take saddle-point weights.
        assert math.isclose(exceedance(group_mixture(BASE, 0.0, 1000), 2.0), ref, rel_tol=1e-14)

    def test_supports_very_deep_recursion(self):
        val = exceedance(group_mixture(BASE, 0.01, 10_000), 3.0)
        assert 0.0 < val < 1.0
        # More layers of uncertainty never reduce the tail.
        assert val > exceedance(group_mixture(BASE, 0.01, 100), 3.0)

    def test_grouped_scales_past_the_double_range(self):
        # Classes at both ends of depth 10^4 have scales of 0 and inf; their
        # log scales keep the tails exact. References: 50-digit mpmath over
        # the classes within 80 nats of the largest term.
        mix = group_mixture(BASE, 0.1, 10_000)
        assert math.isclose(exceedance(mix, 3.0), 6.2649481987335951e-08, rel_tol=1e-12)
        assert math.isclose(log_exceedance(mix, 3.0), -16.585710423997081, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [301, 1000, 5000, 30000])
    def test_grouped_tails_at_plus_and_minus_k_sum_to_one(self, n):
        # X - mu is symmetric, so P(X > k) + P(X > -k) = 1, to one ulp when
        # the class weights sum to 1.
        for a in (0.1, 0.3):
            mix = group_mixture(BASE, a, n)
            for k in (0.0, 0.5, 2.0, 3.0):
                assert abs(exceedance(mix, k) + exceedance(mix, -k) - 1.0) <= math.ulp(1.0)

    def test_base_sigma_near_the_double_limit(self):
        # sigma * scale overflows for the wider components: their tail is 1/2
        # and their density term is tiny, with no RuntimeWarning on the way.
        mix = build_mixture(GaussianBase(0.0, 1e308), ErrorSchedule.constant(0.1, 10))
        assert exceedance(mix, 1.0) == 0.5
        assert math.isclose(log_exceedance(mix, 1.0), math.log(0.5), rel_tol=1e-15)
        peak = density(mix, np.array([0.0, 1.0]))
        assert np.all(peak > 0.0) and peak[0] == peak[1]

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
        for s in mix.sigma * mix.scales:
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
    if log_abs_z > 0.5 * LN_MAX:
        return -math.inf if delta > 0.0 else 0.0
    return math.log(0.5) + log_erfc(math.copysign(math.exp(log_abs_z), delta))


def _log_scales(mix):
    # The given log-scales, else np.log of the whole scale array at once.
    if mix.log_scales is not None:
        return mix.log_scales
    with np.errstate(divide="ignore"):
        return np.log(mix.scales)


def _reference_log_exceedance(mix, k):
    log_sigmas = (math.log(mix.sigma) + _log_scales(mix)).tolist()
    terms = [lw + _reference_log_tail(k - mix.mu, ls)
             for lw, ls in zip(mix.log_weights.tolist(), log_sigmas)]
    m = max(terms)
    return math.log(mix.weight) + m + math.log(math.fsum(math.exp(t - m) for t in terms))


def _reference_exceedance(mix, k):
    tails = []
    log_sigmas = (math.log(mix.sigma) + _log_scales(mix)).tolist()
    for s, ls in zip((mix.sigma * mix.scales).tolist(), log_sigmas):
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
        # One component with sigma = e^-400: ln|z| > 355 at mu +- 1, so its
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


def _unpruned_log_exceedance(mix, k):
    # Every component through _log_tails, a chunk at a time, and the plain
    # log-sum-exp over all of them: log_exceedance without any pruning.
    log_sigma, log_scales, log_weights = math.log(mix.sigma), _log_scales(mix), mix.log_weights
    terms = np.concatenate([
        log_weights[s] + mixstats._log_tails(k - mix.mu, log_sigma + log_scales[s])
        for s in mixstats._slices(mix.n_components)])
    m = float(terms.max())
    if m == -math.inf:
        return -math.inf
    total = math.fsum(np.exp(terms - m).tolist())
    return math.log(mix.weight) + (m + math.log(total))


def _thresholds(mix):
    # Below and at mu, then 3, 10 and 50 base sigmas and 1000 above it.
    return [mix.mu + d for d in (-5.0, 0.0)] + [
        mix.mu + c * mix.sigma for c in (3.0, 10.0, 50.0)] + [mix.mu + 1e3]


# Component counts on both sides of the table pass (_CUT = 256), of one
# chunk and of the bucket sum's batches.
_SIZES = [1, 256, 257, 301, 4096, 4097, 2**15, 10**5]


def _seeded_mixtures(size):
    # An equal-weight mixture (enumerated when size is a power of two) and
    # a grouped one, both of size components, with seeded rates and base.
    rng = np.random.default_rng(size)
    base = GaussianBase(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
    depth = size.bit_length() - 1
    if size == 2**depth:
        rates = rng.uniform(0.01, 0.3, depth)
        equal = build_mixture(base, ErrorSchedule.explicit(rates))
    else:
        log_scales = rng.uniform(-1.5, 1.5, size)
        equal = MixtureDistribution(base.mu, base.sigma, np.exp(log_scales), log_scales,
                                    1.0 / size, np.zeros(size))
    return equal, group_mixture(base, float(rng.uniform(0.01, 0.3)), size - 1)


def _wide_thresholds(mix):
    # From below mu through k = mu to 80 base sigmas above it.
    return [mix.mu] + [mix.mu + c * mix.sigma
                       for c in (-5.0, -1.0, 0.5, 1.0, 3.0, 6.0, 10.0, 30.0, 50.0, 80.0)]


class TestPrunedTails:
    """Past _CUT components, log_exceedance skips terms that provably cannot
    move the rounded sum, and a grouped mixture bounds only a window of
    classes; every result must equal the unpruned sum bit for bit, and the
    table pass must equal the per-threshold one."""

    @pytest.mark.parametrize("size", _SIZES)
    def test_seeded_mixtures_equal_unpruned(self, size):
        for mix in _seeded_mixtures(size):
            ks = _wide_thresholds(mix)
            expected = [_unpruned_log_exceedance(mix, k) for k in ks]
            assert [log_exceedance(mix, k) for k in ks] == expected, mix.n_components
            assert log_exceedance(mix, np.array(ks)).tolist() == expected, mix.n_components

    @pytest.mark.parametrize("size", [257, 4097, 2**15])
    def test_a_narrow_gap_falls_back_to_every_term(self, size, monkeypatch):
        # With a gap of 2 nats the slack moves most rounded sums, so most
        # thresholds take the fallback; the bits must not change.
        monkeypatch.setattr(mixstats, "_GAP", 2.0)
        outcomes = []
        fsum_pair = mixstats._fsum_pair

        def recording(arrays, slack):
            pair = fsum_pair(arrays, slack)
            outcomes.append(pair is not None and pair[0] == pair[1])
            return pair

        monkeypatch.setattr(mixstats, "_fsum_pair", recording)
        for mix in _seeded_mixtures(size):
            for k in _wide_thresholds(mix):
                assert log_exceedance(mix, k) == _unpruned_log_exceedance(mix, k), k
        assert outcomes.count(False) > len(outcomes) // 2

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("n", [300, 4097, 10_000, 100_000])
    def test_grouped_equals_unpruned(self, n, a):
        mix = group_mixture(GaussianBase(0.2, 1.3), a, n)
        for k in _thresholds(mix):
            assert log_exceedance(mix, k) == _unpruned_log_exceedance(mix, k), k

    @pytest.mark.parametrize("depth", [9, 13, 15])
    def test_enumerated_bleed_equals_unpruned(self, depth):
        mix = build_mixture(GaussianBase(-0.1, 0.9), ErrorSchedule.bleed(0.3, 0.9, depth))
        for k in _thresholds(mix):
            assert log_exceedance(mix, k) == _unpruned_log_exceedance(mix, k), k

    def test_the_anchor_lies_below_the_exact_term_within_ln2(self):
        log_sigmas = np.random.default_rng(5).uniform(-6.0, 6.0, 2000)
        for delta in (-3.0, -0.0, 0.0, 1e-3, 0.5, 3.0, 40.0):
            exact = mixstats._log_tails(delta, log_sigmas)
            bounds = mixstats._log_tail_bounds(delta, np.zeros(2000), log_sigmas)
            below = np.array([mixstats._below_bound(delta, b, ls)
                              for b, ls in zip(bounds.tolist(), log_sigmas.tolist())])
            finite = exact > -math.inf
            gap = (exact - below)[finite]
            # Far out the bound is tight, and only rounding can cross it.
            assert np.all(gap >= -1e-15 * np.abs(exact[finite])), delta
            assert gap.size > 1000 and gap.max() <= math.log(2.0), delta

    @pytest.mark.parametrize("size", [256, 4097])
    def test_array_thresholds_equal_the_scalar_loop(self, size):
        # 150 thresholds: three blocks of the table pass at 256 components.
        for mix in _seeded_mixtures(size):
            ks = np.linspace(mix.mu - 5.0 * mix.sigma, mix.mu + 80.0 * mix.sigma, 150)
            got = log_exceedance(mix, ks)
            assert isinstance(got, np.ndarray) and got.shape == (150,)
            assert got.tolist() == [log_exceedance(mix, k) for k in ks.tolist()]
            ks = ks[ks <= mix.mu + 10.0 * mix.sigma]  # further out a ratio can pass 1e308
            ratios = convexity_ratio(mix, ks)
            assert ratios.tolist() == [convexity_ratio(mix, k) for k in ks.tolist()]

    def test_a_float_gives_a_float_and_an_array_an_array(self):
        mix = group_mixture(BASE, 0.1, 10)
        for k in (3.0, np.float64(3.0), np.array(3.0)):
            assert type(log_exceedance(mix, k)) is float
            assert type(convexity_ratio(mix, k)) is float
        for ks in ([3.0], np.array([3.0, 5.0]), np.empty(0)):
            assert log_exceedance(mix, ks).shape == np.shape(ks)
            assert convexity_ratio(mix, ks).shape == np.shape(ks)

    @pytest.mark.parametrize("ks", [[3.0, math.nan], [math.inf], np.ones((2, 2))],
                             ids=["nan", "inf", "2-d"])
    def test_bad_thresholds_raise_value_error(self, ks):
        for mix in (group_mixture(BASE, 0.1, 10), group_mixture(BASE, 0.1, 1000)):
            with pytest.raises(ValueError, match="threshold"):
                log_exceedance(mix, ks)

    def test_a_distance_past_the_double_range_is_not_a_warning(self):
        # k - mu overflows to inf on a float64 threshold: the tail is 0 above
        # mu and 1 below it, with no RuntimeWarning.
        for mix in (group_mixture(GaussianBase(-1e308, 1.0), 0.1, n) for n in (10, 1000)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert log_exceedance(mix, np.float64(1e308)) == -math.inf
                assert log_exceedance(mix, np.array([1e308])).tolist() == [-math.inf]
                assert exceedance(mix, np.float64(1e308)) == 0.0

    def test_sigma_near_the_double_limit(self):
        mix = group_mixture(GaussianBase(0.0, 1e300), 0.1, 10_000)
        for k in _thresholds(mix)[:-1] + [1e303]:
            assert log_exceedance(mix, k) == _unpruned_log_exceedance(mix, k), k

    def test_every_tail_minus_inf(self):
        # sigma = e^-800 for every component: ln|z| > 355 at mu + 1.
        log_scales = np.full(5000, -800.0)
        mix = MixtureDistribution(0.0, 1.0, np.exp(log_scales), log_scales, 1 / 5000,
                                  np.zeros(5000))
        assert log_exceedance(mix, 1.0) == -math.inf == _unpruned_log_exceedance(mix, 1.0)
        assert log_exceedance(mix, -1.0) == 0.0 == _unpruned_log_exceedance(mix, -1.0)

    def test_anchor_below_the_floor_keeps_every_component(self):
        # Every term lies near -1e16, where rounding could outgrow the gap.
        log_scales = np.linspace(-22.0, -19.0, 5000)
        mix = MixtureDistribution(0.0, 1.0, np.exp(log_scales), log_scales, 1 / 5000,
                                  np.zeros(5000))
        val = log_exceedance(mix, 1.0)
        assert -1e17 < val < -1e15
        assert val == _unpruned_log_exceedance(mix, 1.0)

    def test_heaviest_class_with_a_minus_inf_tail(self, monkeypatch):
        # n = 10^5, a = 0.1: the most likely class has ln-scale about -502,
        # so its tail at k = 3 is -inf; the bound, not the weight, must pick
        # the anchor for the pruning to skip most classes.
        mix = group_mixture(BASE, 0.1, 100_000)
        heaviest = int(np.argmax(mix.log_weights))
        log_sigma = mix.log_scales[heaviest : heaviest + 1]
        assert mixstats._log_tails(3.0, log_sigma)[0] == -math.inf
        evaluated = []
        log_tails = mixstats._log_tails

        def counting(delta, log_sigmas):
            evaluated.append(log_sigmas.size)
            return log_tails(delta, log_sigmas)

        monkeypatch.setattr(mixstats, "_log_tails", counting)
        val = log_exceedance(mix, 3.0)
        assert sum(evaluated) < 0.1 * mix.n_components
        monkeypatch.undo()
        assert val == _unpruned_log_exceedance(mix, 3.0)
        assert math.isclose(val, -130.59773247585449, rel_tol=1e-12)  # 50-digit mpmath

    def test_seeded_windows_equal_unpruned(self, monkeypatch):
        # A grouped tail counts every class outside its window as skipped:
        # the anchor, the kept set and the rounding proof are the full
        # pass's. c06-style loop: n log-uniform over 257..10^6, a over 0.001..0.5,
        # thresholds at, below and above mu out to 80 sigma and 1000 past
        # it; a = 0.01 at n = 300 and 1000 puts the peak bound at class n.
        requested = []
        log_weights = BinomialClasses.log_weights

        def recording(classes, lo=0, hi=None):
            if hi is not None:  # a window, not the whole the reference reads
                requested.append((lo, hi, classes.n))
            return log_weights(classes, lo, hi)

        monkeypatch.setattr(BinomialClasses, "log_weights", recording)
        rng = np.random.default_rng(20231)
        draws = [(GaussianBase(0.0, 1.0), 0.3, 30_000), (GaussianBase(0.1, 0.8), 0.01, 300),
                 (GaussianBase(-0.3, 1.2), 0.01, 1000)]
        for _ in range(14):
            base = GaussianBase(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
            n = int(math.exp(rng.uniform(math.log(257), math.log(10**6))))
            draws.append((base, float(math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))), n))
        for base, a, n in draws:
            mix = group_mixture(base, a, n)
            cs = sorted({-5.0, -0.5, 0.0, 0.25, 3.0, 50.0, 80.0, float(rng.uniform(0.0, 80.0)),
                         float(rng.uniform(-3.0, 0.0))})
            ks = [mix.mu + c * mix.sigma for c in cs] + [mix.mu + 1e3]
            got = log_exceedance(mix, ks).tolist()
            expected = [_unpruned_log_exceedance(mix, k) for k in ks]
            assert [v.hex() for v in got] == [v.hex() for v in expected], (a, n)
            assert all(x >= y for x, y in zip(got, got[1:])), (a, n, got)
        assert any(hi == n + 1 for _, hi, n in requested)
        assert all(hi - lo < n + 1 for lo, hi, n in requested if n >= 10_000)

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.3])
    def test_log_exceedance_falls_as_k_grows(self, a):
        # ROADMAP item 11: on a fine grid from below mu to 80 sigma above.
        for n in (257, 5000, 10**6):
            ks = np.linspace(-5.0, 80.0, 341)
            got = log_exceedance(group_mixture(BASE, a, n), ks)
            assert np.all(np.diff(got) <= 0.0), (a, n)

    def test_enumerated_log_exceedance_falls_as_k_grows(self):
        # ROADMAP item 11 for enumerations, on both sides of _CUT: bleed
        # (lambda up to 1.2), explicit and geometric schedules at N = 1..14,
        # about 40 thresholds from mu - 5 to 80, with mu and its neighbours.
        rng = np.random.default_rng(1122)
        for i in range(300):
            n = int(rng.integers(1, 15))
            if i % 3 == 0:
                lam = float(rng.uniform(0.0, 1.2))
                a1 = float(rng.uniform(0.0, 0.9)) / max(lam, 1.0) ** (n - 1)  # every rate < 0.9
                sched = ErrorSchedule.bleed(a1, lam, n)
            elif i % 3 == 1:
                sched = ErrorSchedule.explicit(rng.uniform(0.0, 0.9, n))
            else:
                sched = ErrorSchedule.geometric(float(rng.uniform(0.0, 0.45)), n)
            mu = float(rng.uniform(-1.0, 1.0))
            mix = build_mixture(GaussianBase(mu, float(rng.uniform(0.5, 2.0))), sched)
            ks = np.sort(np.concatenate([rng.uniform(mu - 5.0, 80.0, 40),
                                         np.nextafter(mu, [-math.inf, math.inf]), [mu]]))
            got = log_exceedance(mix, ks)
            assert np.all(np.diff(got) <= 0.0), (sched, mu)

    def test_the_tails_never_form_the_class_arrays(self, monkeypatch):
        # A later refactor that brings back an O(n) pass per grouped tail
        # moves no bit, so only this test sees it.
        evaluated = []
        log_tails = mixstats._log_tails

        def counting(delta, log_sigmas):
            evaluated.append(np.size(log_sigmas))
            return log_tails(delta, log_sigmas)

        monkeypatch.setattr(mixstats, "_log_tails", counting)
        mix = group_mixture(BASE, 0.1, 10**6)
        got = log_exceedance(mix, [3.0, 10.0, 50.0])
        assert not {"scales", "log_scales", "log_weights"} & set(vars(mix))
        assert 0 < sum(evaluated) < 10**4
        monkeypatch.undo()
        assert got.tolist() == [_unpruned_log_exceedance(mix, k) for k in (3.0, 10.0, 50.0)]

    def test_a_fallback_keeps_no_class_array(self, monkeypatch):
        # A failed proof reads every class for that call only, as a window
        # does: kept, two class arrays would hold 2 (n + 1) doubles for the
        # mixture's life.
        monkeypatch.setattr(mixstats, "_GAP", 0.5)
        read = []
        every_logsumexp = mixstats._every_logsumexp

        def recording(delta, log_sigma, lw, ls):
            read.append(lw.size)
            return every_logsumexp(delta, log_sigma, lw, ls)

        monkeypatch.setattr(mixstats, "_every_logsumexp", recording)
        mix = group_mixture(BASE, 0.1, 100_000)
        got = log_exceedance(mix, [3.0, 10.0]).tolist()
        assert 100_001 in read
        assert not {"scales", "log_scales", "log_weights"} & set(vars(mix))
        monkeypatch.undo()
        expected = [_unpruned_log_exceedance(mix, k) for k in (3.0, 10.0)]
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("base, k", [(GaussianBase(-1e308, 1.0), 1e308),
                                         (GaussianBase(0.0, 1e-300), 1.0)])
    def test_tails_that_are_minus_inf_everywhere_read_no_class(self, base, k, monkeypatch):
        # Every bound is -inf, so nothing may be skipped; yet class n, whose
        # ln|z| is the least, lies past 355, so every term is -inf, as the
        # full pass at n = 1000 finds.
        assert log_exceedance(group_mixture(base, 1e-9, 1000), k) == -math.inf
        assert _unpruned_log_exceedance(group_mixture(base, 1e-9, 1000), k) == -math.inf
        monkeypatch.setattr(mixstats, "_class_window", None)
        mix = group_mixture(base, 1e-9, 10**9)
        assert log_exceedance(mix, k) == -math.inf
        assert not {"scales", "log_scales", "log_weights"} & set(vars(mix))

    def test_a_fallback_past_the_ceiling_raises(self, monkeypatch):
        # A failed proof needs every class; past 2^24 + 1 of them that is
        # an EnumerationLimitError (exit 3 on the CLI), not an allocation.
        monkeypatch.setattr(mixstats, "_GAP", 0.5)
        mix = group_mixture(BASE, 0.1, 10**9)
        with pytest.raises(EnumerationLimitError, match="past the ceiling"):
            log_exceedance(mix, 3.0)
        assert not {"scales", "log_scales", "log_weights"} & set(vars(mix))


def _mp_windowed_log_tail(a, n, k, window=80):
    # ln P(X > k) of the depth-n constant-rate mixture around mu = 0,
    # sigma = 1: a 50-digit sum over the classes within window nats of the
    # largest term. The terms are concave in the class, so the largest is
    # found by bisection on the rise from j to j + 1, and the sum walks out
    # from it on both sides. ln(erfc(z)/2) past z = 10^8, where mpmath's
    # erfc cannot go, is -z^2 - ln(2 z sqrt(pi)), within 1/(2 z^2) of it.
    up, down = mpmath.log1p(mpmath.mpf(a)), mpmath.log1p(-mpmath.mpf(a))
    top = mpmath.loggamma(n + 1) - n * mpmath.ln2

    def term(j):
        z = k * mpmath.exp(-(j * up + (n - j) * down)) / mpmath.sqrt(2)
        tail = (mpmath.log(mpmath.erfc(z) / 2) if z < 10**8
                else -z * z - mpmath.log(2 * z * mpmath.sqrt(mpmath.pi)))
        return top - mpmath.loggamma(j + 1) - mpmath.loggamma(n - j + 1) + tail

    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if term(mid + 1) > term(mid) else (lo, mid)
    peak = max((lo, hi), key=term)
    largest, total = term(peak), mpmath.mpf(0)
    for j, step in ((peak, 1), (peak - 1, -1)):
        while 0 <= j <= n and (t := term(j)) >= largest - window:
            total += mpmath.exp(t - largest)
            j += step
    return largest + mpmath.log(total)


class TestGroupedTailsPastTheCeiling:
    """The gap below the anchor widens by ln((n + 1) / (2^24 + 1)) past the
    enumeration ceiling's class count: the slack then stays as far under
    half an ulp as it is at the ceiling, so the proof holds and no tail
    reads every class. With a fixed 60-nat gap, every threshold here
    raised EnumerationLimitError at n = 10^12 and 10^15."""

    @pytest.mark.parametrize("n", [10**11, 10**12, 10**15])
    def test_deep_tails_against_mpmath(self, n):
        # 0.2-0.7 s a depth: 819 classes lie within 80 nats at each.
        ks = [2.0, 3.0, 10.0, 50.0]
        got = log_exceedance(group_mixture(BASE, 0.1, n), np.array(ks)).tolist()
        for k, value in zip(ks, got):
            ref = float(_mp_windowed_log_tail(0.1, n, k))
            # The log-weights are good to a few units of 2^-53 |ln w|.
            assert abs(value - ref) <= 4e-15 * abs(ref), (n, k, value, ref)

    def test_no_gap_widens_up_to_the_ceiling(self):
        # So no kept set of 2^24 + 1 classes or fewer changes.
        assert mixstats._GAP_TERMS == mixstats._MAX_CLASSES == 2**24 + 1
        assert mixstats._gap(2**24 + 1) == mixstats._gap(2) == mixstats._GAP
        assert mixstats._gap(2**24 + 2) > mixstats._GAP


def _batch_thresholds(rng, mix):
    # 1 to 120 thresholds, unsorted and with repeats: below mu, at it, out
    # to 50 base sigmas, and 1e300 past it, where the tail can be -inf.
    pool = [mix.mu, mix.mu - 2.0 * mix.sigma, mix.mu + 50.0 * mix.sigma, mix.mu + 1e300]
    pool += (mix.mu + mix.sigma * rng.uniform(-5.0, 12.0, 8)).tolist()
    return rng.choice(pool, int(rng.integers(1, 121))).tolist()


def _formed_runs(monkeypatch):
    # The (lo, hi) of every run of class log-weights formed from here on;
    # the whole, which only a full pass reads, is (0, None).
    formed = []
    log_weights = BinomialClasses.log_weights

    def recording(classes, lo=0, hi=None):
        formed.append((lo, hi))
        return log_weights(classes, lo, hi)

    monkeypatch.setattr(BinomialClasses, "log_weights", recording)
    return formed


class TestGroupedThresholdBatches:
    """A grouped log_exceedance over many thresholds forms each run of
    overlapping windows once and evaluates their kept classes together;
    every threshold keeps the bits it has alone."""

    def test_a_batch_has_the_bits_of_a_loop(self):
        rng = np.random.default_rng(2027)
        draws = [(float(math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))),
                  int(math.exp(rng.uniform(math.log(257), math.log(10**6)))))
                 for _ in range(16)]
        draws += [(0.1, 10**9), (0.1, 2 * 10**9), (0.01, 10**9)]
        minus_inf = 0
        for a, n in draws:
            base = GaussianBase(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
            mix = group_mixture(base, a, n)
            ks = _batch_thresholds(rng, mix)
            got = log_exceedance(mix, ks).tolist()
            expected = [log_exceedance(mix, k) for k in ks]
            assert [v.hex() for v in got] == [v.hex() for v in expected], (a, n)
            minus_inf += got.count(-math.inf)
        assert minus_inf > 0

    def test_failed_proofs_take_the_full_pass(self, monkeypatch):
        # A gap of 2 nats fails most proofs: each failed threshold takes
        # the pass over every class, with the bits of the unpruned sum.
        monkeypatch.setattr(mixstats, "_GAP", 2.0)
        read = []
        every_logsumexp = mixstats._every_logsumexp

        def recording(delta, log_sigma, lw, ls):
            read.append(lw.size)
            return every_logsumexp(delta, log_sigma, lw, ls)

        monkeypatch.setattr(mixstats, "_every_logsumexp", recording)
        rng = np.random.default_rng(31)
        for a, n in ((0.1, 1000), (0.02, 5000), (0.3, 20_000)):
            mix = group_mixture(GaussianBase(0.1, 1.2), a, n)
            ks = _batch_thresholds(rng, mix)[:40]
            got = log_exceedance(mix, ks).tolist()
            assert n + 1 in read
            expected = [_unpruned_log_exceedance(mix, k) for k in ks]
            assert [v.hex() for v in got] == [v.hex() for v in expected], (a, n)
            read.clear()

    @pytest.mark.parametrize("a, n, ks", [
        (0.102, 1000, np.exp(np.linspace(math.log(1.99), math.log(12.0), 8))),
        (0.05, 3000, np.exp(np.linspace(math.log(2.0), math.log(11.4), 8))),
        (0.1, 10_000, np.exp(np.linspace(math.log(2.0), math.log(12.0), 5))),
        (0.1, 2 * 10**9, np.array([3.0, 10.0, 50.0])),
    ])
    def test_overlapping_windows_form_one_run(self, a, n, ks, monkeypatch):
        formed = _formed_runs(monkeypatch)
        got = log_exceedance(group_mixture(BASE, a, n), ks)
        assert len(formed) == 1 and formed[0][1] is not None
        monkeypatch.undo()
        mix = group_mixture(BASE, a, n)
        assert got.tolist() == [log_exceedance(mix, k) for k in ks.tolist()]

    def test_windows_apart_form_a_run_each(self, monkeypatch):
        # Below mu the window sits near class n/2; 50 sigmas out, near the
        # widest classes: two runs, one per window.
        formed = _formed_runs(monkeypatch)
        mix = group_mixture(BASE, 0.1, 10**6)
        got = log_exceedance(mix, [-1.0, 50.0, -2.0])
        assert len(formed) == 2 and formed[0][1] <= formed[1][0]
        monkeypatch.undo()
        assert got.tolist() == [log_exceedance(mix, k) for k in (-1.0, 50.0, -2.0)]

    def test_short_estimates_grow_the_run(self, monkeypatch):
        # Estimates cut to 3 classes make every window grow, each step
        # forming its run anew over the union; the bits stay the full
        # pass's.
        class_window = mixstats._class_window

        def short(classes, delta, log_sigma):
            lo, hi, _, rel = class_window(classes, delta, log_sigma)
            mid = (lo + hi) // 2
            return mid - 1, mid + 2, 16, rel

        formed = _formed_runs(monkeypatch)
        monkeypatch.setattr(mixstats, "_class_window", short)
        mix = group_mixture(BASE, 0.102, 1000)
        ks = np.exp(np.linspace(math.log(1.99), math.log(12.0), 8))
        got = log_exceedance(mix, ks).tolist()
        assert len(formed) > ks.size
        monkeypatch.undo()
        expected = [_unpruned_log_exceedance(mix, k) for k in ks.tolist()]
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_a_union_past_the_ceiling_is_not_merged(self, monkeypatch):
        # With a ceiling of 1244 classes each 1242-class window fits, but
        # no union of two does: three runs, and no EnumerationLimitError.
        formed = _formed_runs(monkeypatch)
        monkeypatch.setattr(mixstats, "_MAX_CLASSES", 1244)
        mix = group_mixture(BASE, 0.1, 2 * 10**9)
        got = log_exceedance(mix, [3.0, 10.0, 50.0]).tolist()
        assert len(formed) == 3 and all(hi - lo <= 1244 for lo, hi in formed)
        monkeypatch.undo()
        assert got == [log_exceedance(mix, k) for k in (3.0, 10.0, 50.0)]


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

    def test_a_ratio_past_the_double_range_is_inf(self):
        mix = group_mixture(BASE, 0.1, 25)
        assert convexity_ratio(mix, 80.0) == math.inf
        assert convexity_ratio(mix, [35.0, 40.0]).tolist() == [
            math.exp(log_exceedance(mix, 35.0) - log_exceedance(group_mixture(BASE, 0.1, 0), 35.0)),
            math.inf,
        ]

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
        assert math.isclose(mixture_raw_moments(mix, [1])[0], 1.3, rel_tol=1e-14)

    def test_constant_rate_closed_forms(self):
        a, n = 0.1, 8
        m2, m4 = mixture_raw_moments(build_mixture(BASE, ErrorSchedule.constant(a, n)), [2, 4])
        assert math.isclose(m2, (1 + a**2) ** n, rel_tol=1e-13)
        assert math.isclose(m4, 3 * (a**4 + 6 * a**2 + 1) ** n, rel_tol=1e-13)

    def test_against_quadrature(self):
        mix = build_mixture(GaussianBase(0.5, 1.2), ErrorSchedule.constant(0.2, 6))
        span = 14.0 * float((mix.sigma * mix.scales).max())
        for order in (1, 2, 3, 4, 5, 6):
            val, _ = integrate.quad(
                lambda x: x**order * density(mix, x),
                mix.mu - span,
                mix.mu + span,
                limit=400,
            )
            assert math.isclose(mixture_raw_moments(mix, [order])[0], val, rel_tol=1e-7)

    def test_deep_grouped_moments_match_closed_forms(self):
        # Past n = 5000 some classes pair an underflowing weight with an
        # overflowing scale power; the moments stay finite where the closed
        # forms are, and are inf (not nan) where those overflow.
        orders = (2, 4, 6, 8)
        grouped = mixture_raw_moments(group_mixture(BASE, 0.1, 10_000), orders)
        closed = schedule_moments(ErrorSchedule.constant(0.1, 10_000), orders, 0.0, 1.0, 10_000)
        for order, g, c in zip(orders[:2], grouped, closed):
            assert math.isclose(g, c, rel_tol=1e-13), order
        assert grouped[2:] == closed[2:] == [math.inf, math.inf]

    def test_order_guard(self):
        mix = build_mixture(BASE, ErrorSchedule.constant(0.1, 2))
        with pytest.raises(UnsupportedOrderError):
            mixture_raw_moments(mix, [9])


def _order_data(n):
    # Magnitudes over 24 decades, each odd element nearly cancelling the one
    # before it: any change in the order of additions changes the sum's bits.
    rng = np.random.default_rng(2024)
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
    a[1::2] = -a[0::2][: n // 2] * (1 + 2.0**-40)
    return a


def _halving_sum(leaf, lo, hi):
    # _pairwise_sum without the round-down of the left half to a multiple of 8.
    if hi - lo <= mixstats._LEAF:
        return leaf(lo, hi)
    half = (hi - lo) // 2
    return _halving_sum(leaf, lo, lo + half) + _halving_sum(leaf, lo + half, hi)


class TestPairwiseSum:
    """_pairwise_sum adds leaves in np.sum's own pairwise order. If a numpy
    release changes that order, these fail instead of output bits drifting."""

    LENGTHS = [0, 1, 7, 8, 127, 128, 129, 2**14 - 1, 2**14 + 1, 2**20 + 5, 951424]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_leaf_sums_add_up_to_numpy_sum(self, n):
        a = _order_data(n)
        total = mixstats._pairwise_sum(lambda i, j: float(np.sum(a[i:j])), 0, n)
        assert total == np.sum(a)

    @pytest.mark.parametrize("n", [2**20 + 5, 951424])
    def test_the_data_tells_split_orders_apart(self, n):
        a = _order_data(n)
        assert _halving_sum(lambda i, j: float(np.sum(a[i:j])), 0, n) != np.sum(a)


def _sum_data(kind, n):
    rng = np.random.default_rng(n)
    if kind == "signed":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
    if kind == "subnormal":  # multiples of 2^-1074, subnormal and just above
        return rng.integers(-(2**54), 2**54, n) * 5e-324
    if kind == "cancelling":  # x and -x, plus one ulp of the largest x
        x = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-8, 8, n // 2)
        a = np.concatenate([x, -x, [math.ulp(np.abs(x).max())] * (n % 2)])
        rng.shuffle(a)
        return a
    if kind == "spread600":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    return np.zeros(n)


def _chunked(a, shape):
    # One array, or many 1-200-element chunks as pruned grouped sums arrive.
    if shape == "one":
        return [a]
    cuts = np.cumsum(np.random.default_rng(a.size).integers(1, 201, a.size))
    return np.split(a, cuts[cuts < a.size])


def _outcome(total):
    # The bits of a sum, or the exception it raised.
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestExactSum:
    """_fsum gives math.fsum's bits, inf, nan or exception, on either side
    of the size past which it sums in exponent buckets."""

    T = mixstats._FSUM_MAX

    @pytest.mark.parametrize("shape", ["one", "small"])
    @pytest.mark.parametrize("n", [T - 1, T, T + 1, 3 * mixstats._BATCH + 5])
    @pytest.mark.parametrize("kind", ["signed", "subnormal", "cancelling", "spread600",
                                      "zeros"])
    def test_bits_match_math_fsum(self, kind, n, shape):
        a = _sum_data(kind, n)
        expected = math.fsum(a.tolist())
        got = mixstats._fsum(iter(_chunked(a, shape)))
        assert got.hex() == expected.hex()

    def test_empty_input_sums_to_zero(self):
        for arrays in ([], [np.empty(0)], [np.empty(0)] * 3):
            assert mixstats._fsum(iter(arrays)).hex() == (0.0).hex()

    def test_many_equal_terms_round_once(self):
        # 2^24 + 5 copies of 1 - 2^-53: the exact sum lies just below a
        # halfway point between two doubles.
        n = 2**24 + 5
        term = 1.0 - 2.0**-53
        expected = float(n * Fraction(term))
        assert mixstats._fsum(iter([np.full(n, term)])) == expected

    @pytest.mark.parametrize("n", [T - 1, T, T + 1, 3 * mixstats._BATCH + 5])
    @pytest.mark.parametrize("kind", ["signed", "subnormal", "cancelling", "zeros"])
    def test_pair_matches_two_math_fsums(self, kind, n):
        a = _sum_data(kind, n)
        xs = a.tolist()
        for slack in (0.0, 5e-324, 1e-300, 2.0**-60, 1.0, -3.5, 1e288):
            pair = mixstats._fsum_pair(iter(_chunked(a, "small")), slack)
            expected = (math.fsum(xs), math.fsum(xs + [slack]))
            assert [v.hex() for v in pair] == [v.hex() for v in expected], slack

    @pytest.mark.parametrize("n", [T - 1, T + 1, 3 * mixstats._BATCH + 5])
    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan, 2.0**960, -2.0**960])
    def test_pair_is_not_proven_on_huge_or_non_finite_terms(self, special, n):
        a = _sum_data("signed", n)
        assert mixstats._fsum_pair(iter([a]), special) is None
        a[n // 2] = special
        assert mixstats._fsum_pair(iter(_chunked(a, "small")), 1.0) is None

    @pytest.mark.parametrize("shape", ["one", "small"])
    @pytest.mark.parametrize("special", [
        [math.inf], [-math.inf], [math.nan], [math.inf, math.nan], [math.inf, -math.inf],
        [1e308, 1e308, -1e308], [1e308, -1e308, 1e308], [2.0**960, 1.0], [2.0**960, -2.0**960],
    ], ids=["inf", "-inf", "nan", "inf-nan", "inf-inf", "overflow", "no-overflow", "big",
            "big-cancels"])
    @pytest.mark.parametrize("where", ["first", "later"])
    def test_non_finite_and_huge_terms_follow_math_fsum(self, special, where, shape):
        # Later, the small terms cancel: the batches before a huge one must
        # enter math.fsum as their exact sum, not a rounded one.
        small = _sum_data("signed", 3 * mixstats._BATCH + 1)
        a = np.concatenate([special, small] if where == "first" else [small, special, -small])
        expected = _outcome(lambda: math.fsum(a.tolist()))
        assert _outcome(lambda: mixstats._fsum(iter(_chunked(a, shape)))) == expected


def _full_length_scale_power(mixture, m):
    # The one-array form of mixstats._mean_scale_powers, one power written
    # out as its product chain 1 * x * ... * x.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.ones(mixture.n_components)
        for _ in range(m):
            terms *= mixture.scales
        if not mixture.zero_log_weights:
            terms *= np.exp(mixture.log_weights)
        total = float(np.sum(terms))
        if not math.isfinite(total):
            bad = ~np.isfinite(terms)
            terms[bad] = np.exp(mixture.log_weights[bad] + m * _log_scales(mixture)[bad])
            total = float(np.sum(terms))
        return mixture.weight * total


class TestDeepEnumerationMemory:
    """Moments, a density and the log tails of bleed N = 20 stream the
    scales a block at a time: the 8 MiB scales are not built, and no
    log-scales are kept. Holding the scales, the moments and the density
    peaked at 8.5 and 9.2 MiB; with the log-scales too, a new array per
    build layer and the density's full-length mask and sigmas, 16.1 and
    34.1 MiB."""

    SCHEDULE = ErrorSchedule.bleed(0.2, 0.9, 20)

    def _peak(self, evaluate, base=BASE):
        tracemalloc.start()
        try:
            mix = build_mixture(base, self.SCHEDULE)
            evaluate(mix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "scales" not in vars(mix) and mix.log_scales is None
        return peak

    def test_moments(self):
        assert self._peak(lambda mix: mixture_raw_moments(mix, range(1, 9))) < 2**20

    def test_density(self):
        assert self._peak(lambda mix: density(mix, np.linspace(-4.0, 4.0, 9))) < 2**20

    def test_density_with_sigmas_past_the_linear_range(self):
        # At sigma = 1e-303 most chunks hold sigmas below e^-700, summed in
        # log space from each chunk's own log-scales. The full-length mask,
        # log-scales and gathered copies peaked at 34.0 MiB.
        grid = np.linspace(-4e-303, 4e-303, 9)
        peak = self._peak(lambda mix: density(mix, grid), GaussianBase(0.0, 1e-303))
        assert peak < 2 * 2**20

    def test_log_exceedance(self):
        # One 8 MiB array of log-scales for the call, beside the pruned
        # sum's terms (8 MiB) and mask (1 MiB). Building and keeping the
        # scales and the log-scales peaked at 26.1 MiB and kept 16 MiB.
        peak = self._peak(lambda mix: log_exceedance(mix, np.array([3.0, 10.0, 50.0])))
        assert peak < 20 * 2**20


class TestGroupedRuns:
    """Every evaluator reads a mixture through its runs: none keeps an
    array on the mixture, and a grouped one forms its classes a run at a
    time, so its memory does not grow with n."""

    @pytest.mark.parametrize("make", [
        lambda: build_mixture(GaussianBase(0.05, 1.3), ErrorSchedule.bleed(0.2, 0.9, 16)),
        lambda: group_mixture(GaussianBase(0.05, 1.3), 0.1, 10**6),
    ], ids=["enumerated16", "grouped1e6"])
    def test_no_evaluator_keeps_an_array(self, make):
        mix = make()
        formed = {"scales", "log_scales", "log_weights"} - set(vars(mix))
        density(mix, np.linspace(-4.0, 4.0, 9))
        exceedance(mix, 3.0)
        log_exceedance(mix, [3.0, 10.0])
        mixture_raw_moments(mix, range(1, 9))
        if mix.classes is None:
            sample(mix, SampleSpec(n_samples=1000, seed=1))
        else:
            with pytest.raises(ValueError, match="equal"):
                sample(mix, SampleSpec(n_samples=1000, seed=1))
        assert formed and not formed & set(vars(mix))

    # Measured at n = 10^6: 3.3, 3.0 and 2.9 MiB, the same at n = 10^7 (a
    # run's classes and its scratch). The three whole class arrays and
    # their scratch peak at 31 MiB.
    @pytest.mark.parametrize("evaluate", [
        lambda mix: density(mix, np.linspace(-4.0, 4.0, 9)),
        lambda mix: exceedance(mix, 3.0),
        lambda mix: mixture_raw_moments(mix, range(1, 9)),
    ], ids=["density", "exceedance", "moments"])
    def test_peak_memory_is_a_run(self, evaluate):
        tracemalloc.start()
        try:
            evaluate(group_mixture(BASE, 0.1, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestStreamedEqualsMaterialized:
    """Moments, densities and both tails stream an enumeration's scales;
    each has the bits it has on the same mixture given its built scales,
    read as slices. mu = 0.05 makes the moments read every even power."""

    @staticmethod
    def _bits(mix, points, ks, log_ks):
        values = mixture_raw_moments(mix, range(9))
        for p in points:  # 300 points take two grid blocks
            values += density(mix, np.linspace(-5.0, 5.0, p)).tolist()
        values += [exceedance(mix, k) for k in ks]
        values += log_exceedance(mix, np.array(log_ks)).tolist()
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("n", [15, 17, 21])
    @pytest.mark.parametrize("make", [
        lambda n: ErrorSchedule.bleed(0.2, 0.9, n),
        lambda n: ErrorSchedule.explicit(np.linspace(0.3, 0.01, n)),
        lambda n: ErrorSchedule.geometric(0.1, n),
    ], ids=["bleed", "explicit", "geometric"])
    def test_bits(self, make, n):
        # At N = 21, 300 points would take seconds a side, and each
        # threshold a third of one: fewer go through the same blocks.
        if n < 21:
            args = ((9, 300), (-0.7, 1.35, 3.95), (-3.0, 0.0, 3.0, 10.0, 50.0))
        else:
            args = ((9,), (3.95,), (3.0, 50.0))
        mix = build_mixture(GaussianBase(0.05, 1.3), make(n))
        streamed = self._bits(mix, *args)
        assert "scales" not in vars(mix) and mix.log_scales is None
        assert self._bits(replace(mix, scales=mix.scales), *args) == streamed

    def test_far_densities_take_the_same_logs(self):
        # Below e^-700 a sigma's term takes ln scale: np.log of the streamed
        # block, or a slice of log-scales given with the scales.
        mix = build_mixture(GaussianBase(0.0, 1e-303), ErrorSchedule.bleed(0.2, 0.9, 20))
        grid = np.linspace(-4e-303, 4e-303, 9)
        streamed = density(mix, grid).tolist()
        given = MixtureDistribution(0.0, 1e-303, mix.scales.copy(), _log_scales(mix),
                                    mix.weight, np.zeros(mix.n_components))
        built = density(given, grid).tolist()
        assert [v.hex() for v in built] == [v.hex() for v in streamed]

    def test_tails_past_the_double_range_take_the_same_logs(self):
        # sigma * scale rounds to 0 below scale 1/2: those tails take ln
        # scale, from the blocks for an enumeration, given otherwise.
        mix = build_mixture(GaussianBase(0.0, 5e-324), ErrorSchedule.bleed(0.3, 0.9, 15))
        streamed = [exceedance(mix, k) for k in (-1e-323, 1e-323)]
        given = MixtureDistribution(0.0, 5e-324, mix.scales.copy(), np.log(mix.scales),
                                    mix.weight, np.zeros(mix.n_components))
        assert streamed == [exceedance(given, k) for k in (-1e-323, 1e-323)]
        assert 0.5 < streamed[0] < 1.0 and 0.0 < streamed[1] < 0.5


class TestScalePowerLeaves:
    """E[scale^m] summed over cache-sized leaves keeps every bit of the
    one-array sum, in bounded memory and without reference cycles, and
    lies within a few roundings of mpmath."""

    @pytest.mark.parametrize("mixture", [
        build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 17)),
        group_mixture(BASE, 0.1, 100_000),  # overflowing powers: the log-space pass
    ], ids=["bleed17", "grouped1e5"])
    def test_bits_match_the_full_length_sum(self, mixture):
        # Every power in one pass, each with the bits of its own full sum.
        means = mixstats._mean_scale_powers(mixture, range(17)).tolist()
        assert means == [_full_length_scale_power(mixture, m) for m in range(17)]

    @pytest.mark.parametrize("schedule", [
        ErrorSchedule.bleed(0.2, 0.9, 12),
        ErrorSchedule.bleed(0.3, 0.6, 13),
        ErrorSchedule.explicit([0.5, 0.01, 0.9, 0.3, 0.7, 0.2, 0.05, 0.6, 0.4, 0.1, 0.8]),
        ErrorSchedule.constant(0.2, 12),
    ], ids=["bleed12", "bleed13", "explicit11", "constant12"])
    def test_product_chain_against_mpmath(self, schedule):
        # The chain rounds m - 1 times a term and the pairwise sum adds a
        # few roundings more: the worst here is 2.7 units of 2^-53, as the
        # np.power sums were.
        mix = build_mixture(BASE, schedule)
        scales = [mpmath.mpf(x) for x in mix.scales.tolist()]
        means = mixstats._mean_scale_powers(mix, range(1, 9)).tolist()
        for m, got in zip(range(1, 9), means):
            ref = mpmath.fsum(x**m for x in scales) / len(scales)
            assert abs(float((got - ref) / ref)) <= 4 * 2.0**-53, m

    @pytest.mark.parametrize("n", [2**15 - 1, 2**17 - 1])
    def test_grouped_leaves_are_runs_of_classes(self, n):
        # n + 1 = 2^k classes split into leaves of exactly 2^14, each
        # formed as its own run: the moments have the bits of the
        # one-array sums. At a = 0.01 the widest classes' powers overflow
        # and take the log-space pass, yet every moment is finite.
        mix = group_mixture(GaussianBase(0.05, 1.3), 0.01, n)
        powers = {m: _full_length_scale_power(mix, m) for m in range(2, 9, 2)}
        expected = [scale_mixture_moment(k, mix.mu, mix.sigma, powers.__getitem__)
                    for k in range(1, 9)]
        got = mixture_raw_moments(mix, range(1, 9))
        assert all(map(math.isfinite, got))
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("make, width", [
        (lambda: build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 17)), 2),
        (lambda: build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 14)), 2),
        (lambda: group_mixture(BASE, 0.1, 100_000), 1),
    ], ids=["bleed17", "bleed14", "grouped1e5"])
    def test_the_chain_runs_over_two_leaves(self, make, width, monkeypatch):
        # An enumeration's chain runs over 2^15 scales at a time, whose
        # leaves each sum their own slice; classes form a leaf at a time.
        mix, read, runs = make(), [], MixtureDistribution.runs

        def recording(mixture, bounds, *args):
            read.append(bounds)
            return runs(mixture, bounds, *args)

        monkeypatch.setattr(MixtureDistribution, "runs", recording)
        mixstats._mean_scale_powers(mix, [2, 4])
        leaves = mixstats._pairwise_sum(lambda i, j: [(i, j)], 0, mix.n_components)
        assert read == [[(leaves[i][0], leaves[min(i + width, len(leaves)) - 1][1])
                         for i in range(0, len(leaves), width)]]

    def test_peak_memory_is_a_leaf(self):
        # One full-length power array of 2^20 doubles took 8 MB.
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 20))
        tracemalloc.start()
        try:
            mixstats._mean_scale_powers(mix, [4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_no_reference_cycle_keeps_the_leaves(self):
        mixtures = [build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 16)),
                    group_mixture(BASE, 0.1, 10_000)]
        gc.collect()
        gc.disable()
        try:
            for mix in mixtures:
                for m in (2, 4, 8):
                    mixstats._mean_scale_powers(mix, [m])
                    assert gc.collect() == 0
        finally:
            gc.enable()


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
            pairs = zip(mixture_raw_moments(grouped, range(9)),
                        mixture_raw_moments(enumerated, range(9)))
            for g, e in pairs:
                assert math.isclose(g, e, rel_tol=1e-12), ctx
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

    @pytest.mark.parametrize("x_max", [math.inf, math.nan])
    def test_non_finite_x_max_is_rejected_without_warnings(self, x_max):
        # A non-finite x_max must not reach np.linspace, which warns on it.
        mix = group_mixture(BASE, 0.1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x_max must be finite"):
                loglog_series(mix, 2.0, x_max, 5)

    def test_degenerate_window(self):
        series = loglog_series(group_mixture(BASE, 0.1, 3), 2.0, 6.0, 10)
        with pytest.raises(ValueError):
            tail_slope_estimate(series, 0, 2)


# Built alike in this process and in a child held to one CPU: (mixture,
# grid) pairs whose densities are printed as float.hex.
_SPLIT_CASES = """
import numpy as np
from branchvol.branching import ErrorSchedule, GaussianBase, build_mixture, group_mixture
makes = (lambda n: ErrorSchedule.bleed(0.2, 0.9, n),
         lambda n: ErrorSchedule.explicit(np.linspace(0.3, 0.01, n)),
         lambda n: ErrorSchedule.geometric(0.1, n))
base = GaussianBase(0.05, 1.3)
cases = [(build_mixture(base, make(n)), np.linspace(-5.0, 5.0, 9))
         for make in makes for n in range(15, 21)]
cases += [(build_mixture(base, make(16)), np.linspace(-5.0, 5.0, p))
          for make in makes for p in (1, 161)]
cases.append((group_mixture(base, 0.1, 10**6), np.linspace(-4.0, 4.0, 9)))
cases.append((build_mixture(GaussianBase(0.0, 1e-303), ErrorSchedule.bleed(0.2, 0.9, 20)),
              np.linspace(-4e-303, 4e-303, 9)))
"""


def _split_bits(density_of):
    scope = {}
    exec(_SPLIT_CASES, scope)
    return [[v.hex() for v in density_of(mix, grid).tolist()] for mix, grid in scope["cases"]]


_TWO_CPUS = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(mixstats.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))


def _worker_threads():
    return [t for t in threading.enumerate() if t.name == "branchvol-density"]


def _on_the_worker(monkeypatch, act):
    # Wraps _density_chunk: act(count) runs before each chunk the worker
    # thread evaluates, count its number from 1 (a run holds four).
    chunk, count = mixstats._density_chunk, [0]

    def wrapped(*args):
        if threading.current_thread().name == "branchvol-density":
            count[0] += 1
            act(count[0])
        return chunk(*args)

    monkeypatch.setattr(mixstats, "_density_chunk", wrapped)
    return count


@pytest.mark.skipif(not _TWO_CPUS, reason="needs thread affinity and two allowed CPUs")
class TestDensityThreads:
    """Past one run of 2^14 components, density reads every other run on a
    worker thread kept off the caller's CPU; the caller adds the runs'
    sums in run order, so every bit is that of one thread. The worker ends
    with the call on every path, and its exceptions reach the caller
    unchanged."""

    MIX = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 18))  # 16 runs
    GRID = np.linspace(-4.0, 4.0, 9)

    def test_one_cpu_prints_the_bits_of_two(self):
        # About 1 s a side.
        code = ("import json, os\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from branchvol.mixstats import density\n"
                f"exec({_SPLIT_CASES!r})\n"
                "print(json.dumps([[v.hex() for v in density(m, g).tolist()]\n"
                "                  for m, g in cases]))\n")
        out = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert json.loads(out) == _split_bits(density)

    @pytest.mark.parametrize("make, split", [
        (lambda: build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 14)), False),
        (lambda: group_mixture(BASE, 0.1, 2**14 - 1), False),
        (lambda: MixtureDistribution(0.0, 1.0, np.linspace(0.5, 2.0, 2**14), None, 2.0**-14,
                                     np.zeros(2**14)), False),
        (lambda: build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 15)), True),
        (lambda: group_mixture(BASE, 0.1, 2**14), True),
    ], ids=["N=14", "classes 2^14", "given 2^14", "N=15", "classes 2^14 + 1"])
    def test_one_run_starts_no_thread(self, make, split, monkeypatch):
        workers, worker = [], montecarlo._Worker

        def recording(name):
            workers.append(name)
            return worker(name)

        monkeypatch.setattr(montecarlo, "_Worker", recording)
        density(make(), self.GRID)
        assert workers == (["branchvol-density"] if split else [])

    def test_one_allowed_cpu_starts_no_thread(self, monkeypatch):
        split = density(self.MIX, self.GRID)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_Worker", None)  # calling it would raise
        assert density(self.MIX, self.GRID).tolist() == split.tolist()

    @pytest.mark.parametrize("run", [1, 3, 8])
    def test_a_worker_error_reaches_the_caller_unchanged(self, run, monkeypatch):
        # The worker's eighth run is the mixture's last.
        error = MemoryError("Unable to allocate the table")

        def fail(count):
            if count == 4 * (run - 1) + 1:  # the first chunk of that run
                raise error

        count = _on_the_worker(monkeypatch, fail)
        with pytest.raises(MemoryError) as raised:
            density(self.MIX, self.GRID)
        assert raised.value is error
        assert count[0] == 4 * (run - 1) + 1  # it evaluated nothing after the error
        assert not _worker_threads()

    def test_the_cli_maps_a_worker_memory_error_to_exit_3(self, monkeypatch, capsys):
        def fail(count):
            if count == 5:
                raise MemoryError("Unable to allocate the table")

        _on_the_worker(monkeypatch, fail)
        rc = cli.main(["density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=17", "--x=-4:4:1"])
        assert rc == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate the table\n"
        assert not _worker_threads()

    @pytest.mark.parametrize("at", [1, 9, 29])
    def test_an_interrupt_on_the_caller_ends_the_worker(self, at, monkeypatch):
        # Ctrl-C lands on the calling thread, here at its at-th chunk.
        chunk, count = mixstats._density_chunk, [0]

        def interrupted(*args):
            if threading.current_thread() is threading.main_thread():
                count[0] += 1
                if count[0] == at:
                    raise KeyboardInterrupt
            return chunk(*args)

        monkeypatch.setattr(mixstats, "_density_chunk", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            density(self.MIX, self.GRID)
        assert threading.active_count() == before and not _worker_threads()

    def test_ctrl_c_ends_a_long_density(self):
        argv = ["density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=24", "--x=-4:4:0.01"]
        proc = subprocess.Popen([sys.executable, "-m", "branchvol", *argv], env=_ENV,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            time.sleep(1.0)
            assert proc.poll() is None  # still evaluating
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert b"KeyboardInterrupt" in err

    def test_concurrent_calls_each_keep_their_bits(self):
        # More calling threads than CPUs, each with its own worker, under a
        # short switch interval: every density has the bits of a serial one.
        mixtures = [build_mixture(BASE, ErrorSchedule.bleed(a, 0.9, 17)) for a in (0.1, 0.2, 0.3)]
        serial = [density(mix, self.GRID).tolist() for mix in mixtures]
        got = {}

        def run(i):
            got[i] = density(mixtures[i % 3], self.GRID).tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert [got[i] for i in range(6)] == serial * 2
        assert not _worker_threads()

    def test_the_worker_runs_on_the_callers_cpus_but_one(self, monkeypatch):
        masks = []
        _on_the_worker(monkeypatch, lambda count: masks.append(os.sched_getaffinity(0)))
        caller = os.sched_getaffinity(0)
        density(self.MIX, self.GRID)
        assert len(masks) == 32  # eight runs of four chunks
        assert all(mask < caller and len(caller - mask) == 1 for mask in masks)
        assert os.sched_getaffinity(0) == caller
