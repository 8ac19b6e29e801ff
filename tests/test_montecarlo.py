"""Seeded sampling: determinism, uniform branch hits, and
agreement with the exact values at 4 standard errors."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from branchvol import mixstats, montecarlo
from branchvol.branching import ErrorSchedule, GaussianBase, build_mixture, group_mixture
from branchvol.closedform import schedule_moments
from branchvol.mixstats import exceedance
from branchvol.montecarlo import (
    MCSummary,
    SampleSpec,
    TargetEstimate,
    check_report,
    estimate,
    sample,
)

BASE = GaussianBase(0.0, 1.0)


def _mix(a, n):
    return build_mixture(BASE, ErrorSchedule.constant(a, n))


class TestDeterminism:
    def test_identical_seeds_identical_summaries(self):
        mix = _mix(0.1, 6)
        spec = SampleSpec(n_samples=50_000, seed=123, thresholds=(1.0, 3.0))
        s1 = sample(mix, spec)
        s2 = sample(mix, spec)
        assert np.array_equal(s1.power_sums, s2.power_sums)
        # Both follow the seed's stream: branch indices, then normals.
        assert np.array_equal(s1.power_sums, _replay_power_sums(mix, 50_000, 123)[:9])
        assert s1.exceed_counts == s2.exceed_counts
        r1, r2 = estimate(s1), estimate(s2)
        assert r1 == r2

    def test_different_seeds_differ(self):
        mix = _mix(0.1, 6)
        s1 = sample(mix, SampleSpec(n_samples=10_000, seed=1))
        s2 = sample(mix, SampleSpec(n_samples=10_000, seed=2))
        assert not np.array_equal(s1.power_sums, s2.power_sums)


def _replay_power_sums(mixture, n_samples, seed, block=1 << 20):
    # The original sampler, written out: x = mu + sigma * scale * z, then
    # xp = xp * x up to x^16, one block of draws at a time.
    rng = np.random.default_rng(seed)
    sums = np.zeros(17)
    remaining = n_samples
    while remaining:
        m = min(block, remaining)
        idx = rng.integers(0, mixture.n_components, size=m)
        x = mixture.mu + mixture.sigma * mixture.scales[idx] * rng.standard_normal(m)
        xp = np.ones(m)
        sums[0] += m
        for k in range(1, 17):
            xp = xp * x
            sums[k] += float(xp.sum())
        remaining -= m
    return sums


class TestStream:
    """Power sums stop at the highest power estimate reads, and the stream
    and every sum stay those of the original sampler, across blocks."""

    MIX = build_mixture(GaussianBase(0.3, 1.7), ErrorSchedule.bleed(0.2, 0.9, 6))
    N = (1 << 20) + 5

    @pytest.mark.parametrize("orders", [(1, 2, 3, 4), (8,), (1, 2), ()])
    def test_power_sums_match_the_replay(self, orders):
        summary = sample(self.MIX, SampleSpec(n_samples=self.N, seed=17, moment_orders=orders))
        top = 2 * max(orders, default=0)
        assert summary.power_sums.shape == (top + 1,)
        replay = _replay_power_sums(self.MIX, self.N, 17)
        assert np.array_equal(summary.power_sums, replay[: top + 1])


class TestLeaves:
    """Each block is summed over cache-sized leaves: the counts are those of
    the whole block, memory stays near the block's draws, and no reference
    cycle outlives a call."""

    MIX = TestStream.MIX
    N = TestStream.N

    def test_counts_match_the_replay(self):
        thresholds = (0.5, 2.0)
        summary = sample(self.MIX, SampleSpec(n_samples=self.N, seed=17, thresholds=thresholds))
        rng = np.random.default_rng(17)
        exceed = dict.fromkeys(thresholds, 0)
        for m in (1 << 20, 5):
            idx = rng.integers(0, self.MIX.n_components, size=m)
            x = self.MIX.mu + self.MIX.sigma * self.MIX.scales[idx] * rng.standard_normal(m)
            for k in thresholds:
                exceed[k] += int(np.count_nonzero(x > k))
        assert summary.exceed_counts == exceed

    def test_peak_memory_is_the_block_draws(self):
        # The int32 indices of one 2^20 block take 4 MiB and each leaf
        # draws its own normals; int64 indices and the block's normals
        # took 17.1 MiB, full-length powers and products 25.7 MB.
        spec = SampleSpec(n_samples=self.N, seed=17, thresholds=(1.0, 3.0))
        tracemalloc.start()
        try:
            sample(self.MIX, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_one_block_of_indices_at_a_time(self):
        # 2e6 draws take a 2^20 block and one of 951424: the first block's
        # 4 MiB of indices go before the second is drawn (8.0 MiB together).
        spec = SampleSpec(n_samples=2_000_000, seed=17, thresholds=(1.0, 3.0))
        tracemalloc.start()
        try:
            sample(self.MIX, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_leaves_tile_each_block_once_in_ascending_order(self, monkeypatch):
        # Each leaf draws its normals, so the stream is that of one
        # block-long draw only if the leaves run in this order.
        blocks = []

        def recording(leaf, lo, hi):
            blocks.append([])

            def logged(i, j):
                blocks[-1].append((i, j))
                return leaf(i, j)
            return mixstats._pairwise_sum(logged, lo, hi)

        monkeypatch.setattr(montecarlo, "_pairwise_sum", recording)
        sample(self.MIX, SampleSpec(n_samples=self.N, seed=17))
        assert len(blocks) == 2
        for leaves, m in zip(blocks, (1 << 20, 5)):
            assert leaves[0][0] == 0 and leaves[-1][1] == m
            assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
            assert all(0 < j - i <= mixstats._LEAF for i, j in leaves)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 2**20, 2**24])
    def test_int32_indices_take_the_int64_stream(self, n):
        for size in (1, 5, 2**20):
            narrow, wide = np.random.default_rng(n), np.random.default_rng(n)
            assert np.array_equal(narrow.integers(0, n, size=size, dtype=np.int32),
                                  wide.integers(0, n, size=size))
            assert narrow.bit_generator.state == wide.bit_generator.state

    def test_sampling_takes_no_log_scales(self):
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 12))
        sample(mix, SampleSpec(n_samples=1000, seed=3, thresholds=(1.0,)))
        assert mix.log_scales is None

    def test_no_reference_cycle_keeps_the_blocks(self):
        gc.collect()
        gc.disable()
        try:
            for n in (1000, self.N):
                sample(self.MIX, SampleSpec(n_samples=n, seed=3, thresholds=(1.0,)))
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestEstimates:
    def test_constant_stream_has_zero_se(self):
        # Degenerate summary built by hand: every draw equals 3.
        c, n = 3.0, 1000
        summary = MCSummary(
            n=n,
            moment_orders=(1, 2, 4),
            thresholds=(),
            power_sums=np.array([n * c**k for k in range(17)], dtype=float),
            exceed_counts={},
        )
        report = estimate(summary)
        for t in report.targets:
            assert t.estimate == pytest.approx(c**t.key, rel=1e-12)
            assert t.se == 0.0

    def test_gaussian_fourth_moment(self):
        mix = _mix(0.0, 0)
        report = estimate(sample(mix, SampleSpec(n_samples=500_000, seed=9, moment_orders=(4,))))
        (t,) = report.targets
        assert abs(t.estimate - 3.0) < 4.0 * t.se

    def test_mean_recovers_mu(self):
        mix = build_mixture(GaussianBase(0.8, 1.0), ErrorSchedule.constant(0.0, 3))
        report = estimate(sample(mix, SampleSpec(n_samples=200_000, seed=4, moment_orders=(1,))))
        (t,) = report.targets
        assert abs(t.estimate - 0.8) < 4.0 * t.se

    def test_second_moment_against_closed_form(self):
        mix = _mix(0.1, 10)
        report = estimate(
            sample(mix, SampleSpec(n_samples=1_000_000, seed=42, moment_orders=(2,)))
        )
        (t,) = report.targets
        (ref,) = schedule_moments(ErrorSchedule.constant(0.1, 10), [2], 0.0, 1.0, 10)
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_exceedance_against_binomial_form(self):
        mix = _mix(0.1, 5)
        report = estimate(
            sample(
                mix,
                SampleSpec(n_samples=1_000_000, seed=7, moment_orders=(1,), thresholds=(3.0,)),
            )
        )
        t = report.targets[-1]
        ref = exceedance(group_mixture(BASE, 0.1, 5), 3.0)
        assert t.reliable
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_bleed_fourth_moment(self):
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 12))
        report = estimate(
            sample(mix, SampleSpec(n_samples=1_000_000, seed=3, moment_orders=(4,)))
        )
        (t,) = report.targets
        (ref,) = schedule_moments(ErrorSchedule.bleed(0.2, 0.9, 12), [4], 0.0, 1.0, 12)
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_unreliable_targets_flagged(self):
        mix = _mix(0.1, 4)
        report = estimate(
            sample(mix, SampleSpec(n_samples=10_000, seed=5, thresholds=(8.0,)))
        )
        t = report.targets[-1]
        assert not t.reliable

    def test_minimum_sample_size(self):
        mix = _mix(0.1, 2)
        with pytest.raises(ValueError):
            estimate(sample(mix, SampleSpec(n_samples=10, seed=1)))


class TestBranchUniformity:
    def test_counts_within_five_se(self):
        for n in (4, 8):
            mix = _mix(0.1, n)
            summary = sample(mix, SampleSpec(n_samples=1_000_000, seed=31))
            # The sampler draws the seed's branch indices first; replay them.
            assert np.array_equal(summary.power_sums, _replay_power_sums(mix, summary.n, 31)[:9])
            idx = np.random.default_rng(31).integers(0, mix.n_components, size=summary.n)
            counts = np.bincount(idx, minlength=mix.n_components)
            p = 2.0**-n
            se = math.sqrt(p * (1 - p) * summary.n)
            expected = summary.n * p
            assert np.all(np.abs(counts - expected) < 5.0 * se)


class TestWeightedMixtures:
    def test_unequal_weights_are_refused(self):
        with pytest.raises(ValueError, match="equal"):
            sample(group_mixture(BASE, 0.1, 5), SampleSpec(n_samples=100, seed=0))

    def test_equal_weight_classes_are_sampled(self):
        # Depth 1 has two classes of weight 1/2 each.
        summary = sample(group_mixture(BASE, 0.1, 1), SampleSpec(n_samples=100, seed=0))
        assert summary.n == 100


class TestChecks:
    def test_pass_fail_and_refusal(self):
        report_targets = (
            TargetEstimate("moment", 2.0, 1.0, 0.01, True),
            TargetEstimate("moment", 4.0, 3.5, 0.01, True),
            TargetEstimate("exceedance", 6.0, 0.0, 0.0, False),
        )
        report = type(
            "R", (), {"targets": report_targets, "n": 100}
        )()
        refs = {
            ("moment", 2.0): 1.02,
            ("moment", 4.0): 3.0,
            ("exceedance", 6.0): 1e-9,
        }
        checks = check_report(report, refs)
        assert checks[0].passed is True
        assert checks[1].passed is False
        assert checks[2].passed is None and checks[2].z is None


class TestSpecValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            SampleSpec(n_samples=0, seed=1)
        with pytest.raises(ValueError):
            SampleSpec(n_samples=10, seed=-1)
        with pytest.raises(ValueError):
            SampleSpec(n_samples=10, seed=1, moment_orders=(9,))
