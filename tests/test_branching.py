"""Branch construction: branch order, scales, enumerated and grouped
mixtures, and the schedule grammar."""

import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from itertools import islice, product

import mpmath
import numpy as np
import pytest

from branchvol.branching import (
    MAX_ENUMERATION_DEPTH,
    BinomialClasses,
    EnumerationLimitError,
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    Mode,
    NonPositiveScaleError,
    ScaleExpansion,
    ScheduleParseError,
    build_mixture,
    group_mixture,
    parse_schedule_spec,
)
from branchvol.mixstats import _every_log_scale

# Canonical depth-3 sign matrix: binary counting, +1 first, last column fastest.
T3 = np.array(
    [
        [1, 1, 1],
        [1, 1, -1],
        [1, -1, 1],
        [1, -1, -1],
        [-1, 1, 1],
        [-1, 1, -1],
        [-1, -1, 1],
        [-1, -1, -1],
    ]
)


def _sign_matrix(n):
    # Binary counting with +1 for a 0 bit: row i holds the signs of branch i.
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1 - 2 * bits


def _scales(rates):
    return build_mixture(GaussianBase(), ErrorSchedule.explicit(rates)).scales


def _sign_product(signs, rates):
    # Branch scales prod_j (1 + s_j a(j)) straight from a sign matrix.
    out = np.ones(signs.shape[0])
    for j, a in enumerate(rates):
        out *= 1.0 + a * signs[:, j]
    return out


class TestSignMatrix:
    """Branch order: binary counting, +1 first, last layer fastest."""

    def test_depth_zero(self):
        assert _scales([]).tolist() == [1.0]

    def test_depth_one(self):
        assert _scales([0.25]).tolist() == [1.25, 0.75]

    def test_depth_three_canonical_order(self):
        rates = [0.1, 0.2, 0.3]
        assert np.array_equal(_sign_product(_sign_matrix(3), rates), _sign_product(T3, rates))
        assert np.array_equal(_scales(rates), _sign_product(T3, rates))

    def test_rows_distinct_and_complete(self):
        for n in range(13):
            rates = [0.3 * 0.7**j for j in range(n)]
            expected = [
                math.prod(1.0 + s * a for s, a in zip(signs, rates))
                for signs in product((1, -1), repeat=n)
            ]
            scales = _scales(rates)
            assert np.unique(scales).size == 2**n
            assert np.array_equal(scales, expected)
            assert np.array_equal(scales, _sign_product(_sign_matrix(n), rates))

    def test_enumeration_ceiling(self):
        with pytest.raises(EnumerationLimitError):
            build_mixture(GaussianBase(), ErrorSchedule.constant(0.1, 25))
        with pytest.raises(ValueError):
            ErrorSchedule.constant(0.1, -1)


class TestErrorSchedule:
    def test_constructors(self):
        assert ErrorSchedule.constant(0.1, 3).rates == (0.1, 0.1, 0.1)
        bleed = ErrorSchedule.bleed(0.2, 0.9, 3)
        assert bleed.rates == pytest.approx((0.2, 0.18, 0.162), rel=1e-15)
        geo = ErrorSchedule.geometric(0.1, 3)
        assert geo.mode is Mode.ADDITIVE
        assert geo.rates == pytest.approx((0.1, 0.01, 0.001), rel=1e-15)
        assert ErrorSchedule.explicit([0.3, 0.1]).depth == 2

    def test_empty_schedule_allowed(self):
        assert ErrorSchedule.constant(0.1, 0).depth == 0

    def test_depth_must_be_a_nonnegative_integer(self):
        for make in (
            lambda: ErrorSchedule.constant(0.1, 2.5),
            lambda: ErrorSchedule.constant(0.1, -3),
            lambda: ErrorSchedule.bleed(0.2, 0.9, -3),
            lambda: ErrorSchedule.geometric(0.2, -2),
        ):
            with pytest.raises(ValueError, match="depth"):
                make()

    def test_rate_range_enforced(self):
        with pytest.raises(ValueError):
            ErrorSchedule.constant(1.0, 2)
        with pytest.raises(ValueError):
            ErrorSchedule.explicit([-0.1])

    @pytest.mark.parametrize("a1, first_bad", [(1e-300, 1705), (1e-320, 1819)])
    def test_rates_past_the_double_range_name_the_first_rate_at_one(self, a1, first_bad):
        # lam^k leaves the double range near k = 1750: after the first rate
        # >= 1 for a1 = 1e-300, before it for a1 = 1e-320.
        rates = ErrorSchedule.bleed(a1, 1.5, first_bad - 1).rates
        assert max(rates) < 1.0
        with pytest.raises(ValueError) as err:
            ErrorSchedule.bleed(a1, 1.5, 3000)
        head, _, r = str(err.value).rpartition(" ")
        assert head == f"rate a({first_bad}) must lie in [0, 1), got"
        assert math.isclose(float(r), rates[-1] * 1.5, rel_tol=1e-12)

    def test_a_deep_rule_is_checked_without_building_its_rates(self):
        # A rule is checked as a rule: a trillion layers cost no memory
        # until .rates is read, and a rising bleed bisects for its first
        # rate at 1.
        tracemalloc.start()
        try:
            schedule = ErrorSchedule.bleed(0.2, 0.9, 10**12)
            at_depth = schedule.at_depth(10**12 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (schedule.depth, at_depth.depth) == (10**12, 10**12 + 1)
        with pytest.raises(ValueError, match=r"^rate a\(1705\) must lie in \[0, 1\), got "):
            ErrorSchedule.bleed(1e-300, 1.5, 10**12)

    def test_zero_rates_survive_an_overflowing_lambda(self):
        assert ErrorSchedule.bleed(0.0, 1.5, 3000).rates == (0.0,) * 3000
        with pytest.raises(ValueError, match=r"rate a\(1\) must lie in \[0, 1\), got 1.5"):
            ErrorSchedule.geometric(1.5, 3000)

    def test_additive_requires_power_sequence(self):
        with pytest.raises(ValueError):
            ErrorSchedule.explicit([0.1, 0.1], Mode.ADDITIVE)
        # The genuine power sequence passes.
        ErrorSchedule.explicit([0.1, 0.01, 0.001], Mode.ADDITIVE)
        # Every rate is checked before the rule, which would fail at position 2.
        with pytest.raises(ValueError, match=r"^rate a\(3\) must lie in \[0, 1\), got 1.5$"):
            ErrorSchedule.explicit([0.5, 0.5, 1.5], Mode.ADDITIVE)


class TestScaleSet:
    def test_zero_rate_gives_unit_scales(self):
        ss = build_mixture(GaussianBase(), ErrorSchedule.constant(0.0, 5))
        assert np.all(ss.scales == 1.0)
        assert ss.weight == 2.0**-5

    def test_depth_three_extremes(self):
        ss = build_mixture(GaussianBase(), ErrorSchedule.constant(0.1, 3))
        assert math.isclose(ss.scales.min(), 0.9**3, rel_tol=1e-15)
        assert math.isclose(ss.scales.max(), 1.1**3, rel_tol=1e-15)
        # First branch (all +1 signs) is the all-up product, last is all-down.
        assert math.isclose(ss.scales[0], 1.1**3, rel_tol=1e-15)
        assert math.isclose(ss.scales[-1], 0.9**3, rel_tol=1e-15)

    def test_additive_offsets(self):
        ss = build_mixture(GaussianBase(), ErrorSchedule.geometric(0.1, 3))
        expected = sorted(
            1.0 + s1 * 0.1 + s2 * 0.01 + s3 * 0.001
            for s1, s2, s3 in product((1, -1), repeat=3)
        )
        assert np.allclose(np.sort(ss.scales), expected, rtol=1e-15)
        assert math.isclose(ss.scales.min(), 0.889, rel_tol=1e-12)
        assert math.isclose(ss.scales.max(), 1.111, rel_tol=1e-12)

    def test_mean_scale_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(0, 11))
            style = rng.integers(0, 3)
            if style == 0:
                sched = ErrorSchedule.constant(float(rng.uniform(0, 0.5)), n)
            elif style == 1:
                sched = ErrorSchedule.bleed(
                    float(rng.uniform(0, 0.5)), float(rng.uniform(0, 1)), n
                )
            else:
                sched = ErrorSchedule.explicit(rng.uniform(0, 0.9, size=n))
            ss = build_mixture(GaussianBase(), sched)
            assert abs(float(np.mean(ss.scales)) - 1.0) < 1e-12

    def test_binomial_collapse_multiset_dyadic_exact(self):
        # With a = 0.5 the factors 1.5 and 0.5 are dyadic, so every product
        # is exact and the multiset match is bitwise.
        for n in range(1, 13):
            ss = build_mixture(GaussianBase(), ErrorSchedule.constant(0.5, n))
            expected = np.sort(
                np.array(
                    [
                        1.5**j * 0.5 ** (n - j)
                        for j in range(n + 1)
                        for _ in range(math.comb(n, j))
                    ]
                )
            )
            assert np.array_equal(np.sort(ss.scales), expected)

    def test_binomial_collapse_multiset_generic(self):
        a = 0.1
        for n in (4, 8, 12):
            ss = build_mixture(GaussianBase(), ErrorSchedule.constant(a, n))
            expected = np.sort(
                np.array(
                    [
                        (1 + a) ** j * (1 - a) ** (n - j)
                        for j in range(n + 1)
                        for _ in range(math.comb(n, j))
                    ]
                )
            )
            assert np.allclose(np.sort(ss.scales), expected, rtol=4e-15)
            # Multiplicities are exactly binomial: count branches by sign sum.
            signs = _sign_matrix(n)
            ups = ((signs + 1) // 2).sum(axis=1)
            for j in range(n + 1):
                assert int(np.count_nonzero(ups == j)) == math.comb(n, j)

    def test_additive_nonpositive_scale_rejected(self):
        with pytest.raises(NonPositiveScaleError) as err:
            build_mixture(GaussianBase(), ErrorSchedule.geometric(0.6, 3))
        assert "branch" in str(err.value)

    @staticmethod
    def _additive_reference(rates):
        # Offsets summed left to right from 0, then 1 added, per branch in
        # itertools.product order.
        out = []
        for signs in product((1, -1), repeat=len(rates)):
            total = 0.0
            for s, a in zip(signs, rates):
                total += s * a
            out.append(total + 1.0)
        return np.array(out)

    def test_additive_scales_bit_for_bit(self):
        for a in (0.1, 0.3, 0.45):
            for n in range(13):
                schedule = ErrorSchedule.geometric(a, n)
                scales = build_mixture(GaussianBase(), schedule).scales
                assert np.array_equal(scales, self._additive_reference(schedule.rates)), (a, n)

    def test_additive_error_names_the_first_bad_branch(self):
        for a, n in ((0.6, 3), (0.7, 5), (0.55, 8)):
            ref = self._additive_reference(ErrorSchedule.geometric(a, n).rates)
            i = int(np.flatnonzero(ref <= 0.0)[0])
            signs = next(islice(product((1, -1), repeat=n), i, None))
            with pytest.raises(NonPositiveScaleError) as err:
                build_mixture(GaussianBase(), ErrorSchedule.geometric(a, n))
            assert str(err.value) == (
                f"branch {i} with signs {signs} has scale {ref[i]:.6g} <= 0"
            )


def _layerwise(schedule):
    # The unblocked build: each layer a new full-length array, branch 2i + c
    # of a layer from branch i of the one before, c = 0 for +a(j).
    additive = schedule.mode is Mode.ADDITIVE
    op = np.add if additive else np.multiply
    scales = np.zeros(1) if additive else np.ones(1)
    for a in schedule.rates:
        up, down = (a, -a) if additive else (1.0 + a, 1.0 - a)
        scales = np.column_stack((op(scales, up), op(scales, down))).ravel()
    return scales + 1.0 if additive else scales


_MAKES = pytest.mark.parametrize("make", [
    lambda n: ErrorSchedule.bleed(0.2, 0.9, n),
    lambda n: ErrorSchedule.explicit(np.linspace(0.3, 0.01, n)),
    lambda n: ErrorSchedule.geometric(0.1, n),
    lambda n: ErrorSchedule.explicit([0.05**j for j in range(1, n + 1)], Mode.ADDITIVE),
], ids=["bleed", "explicit", "geometric", "additive-explicit"])


class TestBlockedBuild:
    """The build expands the last 14 layers a block at a time: every scale
    has the bits of the layer-by-layer build, on both sides of the split."""

    DEPTHS = [0, 1, 13, 14, 15, 21]

    @pytest.mark.parametrize("n", DEPTHS)
    @_MAKES
    def test_scales_equal_the_layerwise_build(self, make, n):
        schedule = make(n)
        scales = build_mixture(GaussianBase(), schedule).scales
        assert np.array_equal(scales, _layerwise(schedule))

    @pytest.mark.parametrize("n", [13, 14, 15, 21])
    @pytest.mark.parametrize("a", [0.6, 0.99])
    def test_nonpositive_scale_error_names_the_first_bad_branch(self, a, n):
        # a = 0.99 first fails in the first block, a = 0.6 near the end.
        schedule = ErrorSchedule.geometric(a, n)
        ref = _layerwise(schedule)
        i = int(np.flatnonzero(ref <= 0.0)[0])
        signs = next(islice(product((1, -1), repeat=n), i, None))
        with pytest.raises(NonPositiveScaleError) as err:
            build_mixture(GaussianBase(), schedule)
        assert str(err.value) == f"branch {i} with signs {signs} has scale {ref[i]:.6g} <= 0"


def _blocks(mix):
    # The scales of each run the mixture's reader yields, in order.
    return (scales for _, scales, _, _ in mix.runs())


class TestScaleBlocks:
    """An enumeration keeps the head and the last moves: its runs stream
    the scales, with the bits of the layer-by-layer build, and its
    ``scales`` attribute builds them anew at each read. A mixture given
    the built scales reads slices of them."""

    @pytest.mark.parametrize("n", TestBlockedBuild.DEPTHS)
    @_MAKES
    def test_blocks_equal_the_layerwise_build(self, make, n):
        schedule = make(n)
        mix = build_mixture(GaussianBase(), schedule)
        streamed = [b.copy() for b in _blocks(mix)]
        assert "scales" not in vars(mix)
        assert {b.size for b in streamed} == {min(2**n, 2**14)}
        assert np.array_equal(np.concatenate(streamed), _layerwise(schedule))
        scales = mix.scales  # built for this read, not kept
        assert "scales" not in vars(mix) and mix.scales is not scales
        sliced = list(_blocks(replace(mix, scales=scales)))
        assert np.array_equal(scales, _layerwise(schedule))
        assert all(np.array_equal(a, b) for a, b in zip(streamed, sliced, strict=True))
        assert all(np.shares_memory(b, scales) for b in sliced)

    @pytest.mark.parametrize("n", [1, 13, 15, 21])
    @_MAKES
    def test_the_ends_are_the_extremes(self, make, n):
        mix = build_mixture(GaussianBase(), make(n))
        first, last = mix.expansion.ends()
        assert "scales" not in vars(mix)
        assert (first, last) == (mix.scales[0], mix.scales[-1])
        assert (first, last) == (mix.scales.max(), mix.scales.min())

    def test_every_read_streams_and_builds_nothing(self, monkeypatch):
        # Each read expands the scales anew and keeps nothing.
        expanded, built = [], []
        fill, build = ScaleExpansion._fill, ScaleExpansion.build

        def counted(self, i, run, out, scratch):
            expanded.append(run)
            fill(self, i, run, out, scratch)

        def counted_build(self):
            built.append(self)
            return build(self)

        monkeypatch.setattr(ScaleExpansion, "_fill", counted)
        monkeypatch.setattr(ScaleExpansion, "build", counted_build)
        schedule = ErrorSchedule.bleed(0.2, 0.9, 17)
        mix = build_mixture(GaussianBase(), schedule)
        head = mix.expansion.head.size
        reads = [[b.copy() for b in _blocks(mix)] for _ in range(5)]
        assert "scales" not in vars(mix) and not built
        assert sum(expanded) == 5 * head
        for blocks in reads:
            assert np.array_equal(np.concatenate(blocks), _layerwise(schedule))

    def test_streamed_blocks_are_read_only_views_of_one_scratch(self):
        blocks = _blocks(build_mixture(GaussianBase(), ErrorSchedule.bleed(0.2, 0.9, 16)))
        first, second = next(blocks), next(blocks)
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0

    def test_the_deepest_build_holds_no_scales(self):
        tracemalloc.start()
        try:
            mix = build_mixture(GaussianBase(), ErrorSchedule.bleed(0.2, 0.9, MAX_ENUMERATION_DEPTH))
            assert mix.n_components == 2**MAX_ENUMERATION_DEPTH
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "scales" not in vars(mix) and peak < 2**16

    def test_scales_given_as_none_need_an_expansion(self):
        with pytest.raises(ValueError, match="expansion"):
            MixtureDistribution(0.0, 1.0, None, None, 1.0, np.zeros(1))

    def test_the_smallest_scale_may_be_tiny(self):
        # At a = 0.5 the all-minus offset is -(1 - 2^-20) exactly: every
        # scale is positive and the build streams no block to check.
        mix = build_mixture(GaussianBase(), ErrorSchedule.geometric(0.5, 20))
        assert mix.expansion.ends()[1] == 2.0**-20
        assert "scales" not in vars(mix)
        assert mix.scales.min() == 2.0**-20

    def test_nonpositive_scale_error_at_depth_20(self):
        schedule = ErrorSchedule.geometric(0.501, 20)
        ref = _layerwise(schedule)
        i = int(np.flatnonzero(ref <= 0.0)[0])
        signs = next(islice(product((1, -1), repeat=20), i, None))
        with pytest.raises(NonPositiveScaleError) as err:
            build_mixture(GaussianBase(), schedule)
        assert str(err.value) == f"branch {i} with signs {signs} has scale {ref[i]:.6g} <= 0"


class TestMixtureFields:
    """A mixture keeps nothing: an array given as None is formed by the
    rule at each read of its attribute (an enumeration's scales; every
    class array of a grouped mixture), and an enumeration's log-scales are
    None. Arrays given are kept, read-only."""

    def test_an_enumeration_has_no_log_scales(self):
        for schedule in (ErrorSchedule.bleed(0.2, 0.9, 15), ErrorSchedule.geometric(0.1, 9)):
            mix = build_mixture(GaussianBase(), schedule)
            assert mix.log_scales is None and mix.part("log_scales") is None
            log_scales = _every_log_scale(mix)
            assert "scales" not in vars(mix) and mix.log_scales is None
            assert np.array_equal(log_scales, np.log(mix.scales))
            assert mix.log_scales is None

    @pytest.mark.parametrize("make", [lambda: group_mixture(GaussianBase(), 0.1, 10_000),
                                      lambda: build_mixture(GaussianBase(),
                                                            ErrorSchedule.bleed(0.2, 0.9, 15))],
                             ids=["grouped", "enumerated"])
    def test_arrays_are_formed_at_each_read_and_never_kept(self, make):
        mix = make()
        formed = [name for name in ("scales", "log_scales", "log_weights")
                  if name not in vars(mix)]
        assert formed
        for name in formed:
            array = getattr(mix, name)
            expected = array.copy()
            array[:] = 0.0  # the caller's own array: the mixture holds no reference to it
            again = getattr(mix, name)
            assert again is not array and np.array_equal(again, expected), name
            assert name not in vars(mix), name

    def test_given_arrays_are_kept_read_only(self):
        n = 1000
        ls = np.linspace(-1.0, 1.0, n)
        given = {"scales": np.exp(ls), "log_scales": ls, "log_weights": np.zeros(n)}
        mix = MixtureDistribution(0.0, 1.0, given["scales"], ls, 1.0, given["log_weights"])
        for name, array in given.items():
            assert vars(mix)[name] is array and getattr(mix, name) is array, name
            assert not array.flags.writeable, name

    def test_a_grouped_run_forms_its_log_scales_once(self, monkeypatch):
        # Three runs of 2^15 + 1 classes (the last of one class): three
        # formations, each run's scales the exp of its log-scales.
        calls = []
        log_scales = BinomialClasses.log_scales

        def counting(classes, lo=0, hi=None):
            calls.append((lo, hi))
            return log_scales(classes, lo, hi)

        monkeypatch.setattr(BinomialClasses, "log_scales", counting)
        mix = group_mixture(GaussianBase(), 0.1, 2**15)
        runs = list(mix.runs())
        assert calls == [(0, 2**14), (2**14, 2**15), (2**15, 2**15 + 1)]
        monkeypatch.undo()
        for lo, scales, ls, _ in runs:
            assert scales.tobytes() == mix.part("scales", lo, lo + scales.size).tobytes()
            assert ls.tobytes() == mix.classes.log_scales(lo, lo + scales.size).tobytes()

    def test_zero_stride_log_weights_are_read_from_one_element(self):
        # 2^40 equal log-weights as one broadcast element: a scan of every
        # element would run for minutes.
        for value, zero in ((0.0, True), (-1.0, False)):
            lw = np.broadcast_to(value, (2**40,))
            mix = MixtureDistribution(0.0, 1.0, np.ones(1), None, 1.0, lw)
            started = time.perf_counter()
            assert mix.zero_log_weights is zero
            assert time.perf_counter() - started < 0.1

    def test_repr_and_equality_form_no_class_array(self):
        mix = group_mixture(GaussianBase(), 0.1, 10**6)
        text = repr(mix)
        assert "classes=BinomialClasses(a=0.1, n=1000000)" in text
        assert mix == mix and mix != group_mixture(GaussianBase(), 0.1, 10**6)
        assert not {"scales", "log_scales", "log_weights"} & set(vars(mix))

    def test_mixtures_stay_frozen(self):
        mix = build_mixture(GaussianBase(), ErrorSchedule.constant(0.1, 4))
        with pytest.raises(AttributeError):
            mix.log_scales = np.zeros(16)
        with pytest.raises(AttributeError, match="no attribute 'log_scale'"):
            mix.log_scale

    def test_threads_reading_one_mixture_share_nothing(self):
        # Threads that read one mixture at once each get a whole array of
        # their own, and the mixture is left as it was built.
        schedule = ErrorSchedule.bleed(0.2, 0.9, 12)
        expected = _layerwise(schedule)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                mix = build_mixture(GaussianBase(), schedule)
                before = dict(vars(mix))
                seen = []
                threads = [threading.Thread(target=lambda: seen.append(mix.scales))
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 8
                assert all(np.array_equal(s, expected) for s in seen)
                assert len({id(s) for s in seen}) == 8
                assert vars(mix) == before
        finally:
            sys.setswitchinterval(switch)


class TestMixture:
    def test_depth_zero_is_base_gaussian(self):
        mix = build_mixture(GaussianBase(0.5, 2.0), ErrorSchedule.constant(0.3, 0))
        assert mix.n_components == 1
        assert mix.weight == 1.0
        assert (mix.sigma * mix.scales).tolist() == [2.0]

    def test_depth_one_split(self):
        mix = build_mixture(GaussianBase(0.0, 1.5), ErrorSchedule.constant(0.2, 1))
        assert sorted((mix.sigma * mix.scales).tolist()) == pytest.approx([1.2, 1.8], rel=1e-15)
        assert mix.weight == 0.5

    def test_depth_two_scales(self):
        mix = build_mixture(GaussianBase(), ErrorSchedule.constant(0.1, 2))
        assert np.allclose(np.sort(mix.scales), [0.81, 0.99, 0.99, 1.21], rtol=1e-15)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            GaussianBase(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianBase(math.nan, 1.0)


class TestGroupMixture:
    def test_classes_and_weights(self):
        mix = group_mixture(GaussianBase(0.5, 2.0), 0.1, 3)
        assert (mix.mu, mix.sigma, mix.weight) == (0.5, 2.0, 1.0)
        assert np.allclose(mix.scales, [0.9**3, 1.1 * 0.9**2, 1.1**2 * 0.9, 1.1**3], rtol=1e-15)
        assert np.allclose(np.exp(mix.log_weights), [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=1e-15)
        assert np.allclose(np.exp(mix.log_scales), mix.scales, rtol=1e-15)

    def test_depth_zero_is_base_gaussian(self):
        mix = group_mixture(GaussianBase(0.0, 1.5), 0.3, 0)
        assert (mix.sigma * mix.scales).tolist() == [1.5]
        assert mix.log_weights.tolist() == [0.0]

    def test_weights_match_enumerated_multiplicities(self):
        for n in (1, 5, 12):
            grouped = group_mixture(GaussianBase(), 0.5, n)
            enumerated = build_mixture(GaussianBase(), ErrorSchedule.constant(0.5, n))
            values, counts = np.unique(enumerated.scales, return_counts=True)
            assert np.allclose(values, grouped.scales, rtol=1e-14)
            assert np.allclose(counts * enumerated.weight, np.exp(grouped.log_weights),
                               rtol=1e-14)

    def test_deep_classes_keep_finite_logs(self):
        mix = group_mixture(GaussianBase(), 0.1, 10_000)
        assert mix.n_components == 10_001
        assert mix.scales[0] == 0.0 and mix.scales[-1] == math.inf
        assert np.all(np.isfinite(mix.log_scales))
        assert math.isclose(math.fsum(np.exp(mix.log_weights)), 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("n", [301, 1000, 10_000, 100_000])
    def test_weights_sum_to_one(self, n):
        total = math.fsum(np.exp(group_mixture(GaussianBase(), 0.1, n).log_weights))
        assert abs(total - 1.0) <= 4.4e-16

    @pytest.mark.parametrize("n", [1, 2, 299, 300, 301, 1000, 4097, 20000])
    def test_weights_and_scales_pinned_per_class(self, n):
        # Up to 300, bit for bit against the exact binomials. Above it,
        # against 40-digit mpmath on classes at both ends, at the stirlerr
        # cut points (of j and of n - j), on both sides of the bd0 series
        # switch at 9n/22, and at the mode; and exactly symmetric.
        a, ln2 = 0.1, math.log(2.0)
        mix = group_mixture(GaussianBase(), a, n)
        if n <= 300:
            log_binom = [math.log(math.comb(n, i)) for i in range(n + 1)]
            assert np.array_equal(mix.log_weights, [lb - n * ln2 for lb in log_binom])
        else:
            assert np.array_equal(mix.log_weights, mix.log_weights[::-1])
            switch = 9 * n // 22
            near = [0, 1, 2, 15, 16, 35, 36, 80, 81, 500, 501,
                    switch - 1, switch, switch + 1, switch + 2, n // 2, (n + 1) // 2]
            classes = sorted({j for i in near for j in (i, n - i) if 0 <= j <= n})
            with mpmath.workdps(40):
                for j in classes:
                    ref = mpmath.log(mpmath.binomial(n, j)) - n * mpmath.log(2)
                    tol = 1e-14 * max(1.0, abs(float(ref)))
                    assert abs(mix.log_weights[j] - ref) <= tol, j
        log_scales = np.array([i * math.log1p(a) + (n - i) * math.log1p(-a)
                               for i in range(n + 1)])
        assert np.array_equal(mix.log_scales, log_scales)
        with np.errstate(over="ignore"):
            assert np.array_equal(mix.scales, np.exp(log_scales))

    def test_peak_memory_of_a_deep_build(self):
        # The mixture holds its rule and forms nothing. Formed in density's
        # order, the weights' scratch is freed before the scale arrays
        # exist: the peak is about four (n + 1)-length arrays.
        tracemalloc.start()
        try:
            mix = group_mixture(GaussianBase(), 0.1, 100_000)
            held = tracemalloc.get_traced_memory()[0]
            mix.log_weights, mix.scales
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 2**12 and peak < 3.3 * 2**20

    @pytest.mark.parametrize("n", [1, 2, 299, 300, 301, 1000, 4097, 20000, 10**6])
    def test_runs_of_classes_have_the_bits_of_the_whole(self, n):
        # Either half of the mirror, both, the ends, the mode and one class.
        mix = group_mixture(GaussianBase(), 0.3, n)
        rng = np.random.default_rng(n)
        runs = [(0, 1), (n, n + 1), (n // 2, n // 2 + 1), (0, n // 2 + 1), (n // 2, n + 1)]
        for _ in range(20):
            lo = int(rng.integers(0, n + 1))
            runs.append((lo, int(rng.integers(lo + 1, n + 2))))
        for lo, hi in runs:
            for name in ("log_weights", "log_scales"):
                run = getattr(mix.classes, name)(lo, hi)
                assert run.tobytes() == getattr(mix, name)[lo:hi].tobytes(), (name, lo, hi)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            group_mixture(GaussianBase(), 1.0, 3)
        with pytest.raises(ValueError):
            group_mixture(GaussianBase(), 0.1, -1)
        with pytest.raises(ValueError):
            group_mixture(GaussianBase(), 0.1, 2.5)


class TestEnumerationCeiling:
    def test_deepest_enumeration_fits_in_half_a_gigabyte(self):
        # The 128 MiB scales plus the head and the block scratch; a new
        # array per layer and the log-scales took 256 MiB.
        tracemalloc.start()
        try:
            mix = build_mixture(GaussianBase(), ErrorSchedule.bleed(0.2, 0.9, MAX_ENUMERATION_DEPTH))
            mix.scales  # built for this read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mix.n_components == 2**MAX_ENUMERATION_DEPTH
        assert peak < 140 * 2**20


class TestScheduleGrammar:
    def test_constant(self):
        sched = parse_schedule_spec("constant:a=0.1,N=5")
        assert sched.rates == (0.1,) * 5
        assert sched.mode is Mode.MULTIPLICATIVE

    def test_bleed(self):
        sched = parse_schedule_spec("bleed:a1=0.2,lambda=0.9,N=3")
        assert sched.rates == pytest.approx((0.2, 0.18, 0.162), rel=1e-15)

    def test_geometric_is_additive(self):
        sched = parse_schedule_spec("geometric:a=0.1,N=3")
        assert sched.mode is Mode.ADDITIVE
        assert sched.rates == pytest.approx((0.1, 0.01, 0.001), rel=1e-15)
        assert parse_schedule_spec("geometric:a=0.1,N=3;mode=additive") == sched

    def test_explicit(self):
        sched = parse_schedule_spec("explicit:0.1,0.2,0.3")
        assert sched.rates == (0.1, 0.2, 0.3)

    def test_explicit_additive_suffix(self):
        sched = parse_schedule_spec("explicit:0.1,0.01,0.001;mode=additive")
        assert sched.mode is Mode.ADDITIVE

    @pytest.mark.parametrize("text, first", [
        ("constant:a=0.1,N=5", 0.1),
        ("bleed:a1=0.2,lambda=0.9,N=3", 0.2),
        ("geometric:a=0.3,N=4", 0.3),
        ("explicit:0.25,0.5", 0.25),
        ("explicit:", 0.0),
    ])
    def test_spec_keeps_the_first_rate_in_one_field(self, text, first):
        assert parse_schedule_spec(text).a == first

    @pytest.mark.parametrize("text, ascii_form", [
        ("constant:a=0.\u0661,N=5", "constant:a=0.1,N=5"),  # Arabic-Indic one
        ("constant:a=0.1,N=\u0665", "constant:a=0.1,N=5"),  # Arabic-Indic five
        ("constant:a=\uff10.1,N=5", "constant:a=0.1,N=5"),  # full-width zero
        ("constant:A=0.1,N=5", "constant:a=0.1,N=5"),
        ("explicit:0.1,0.01;MODE=ADDITIVE", "explicit:0.1,0.01;mode=additive"),
        ("explicit:0.1,,0.2", "explicit:0.1,0.2"),
    ])
    def test_documented_spellings_parse_as_their_ascii_form(self, text, ascii_form):
        # Numbers as float() and int() read them, case-folded keys and
        # suffix, and blank explicit items skipped.
        assert parse_schedule_spec(text) == parse_schedule_spec(ascii_form)

    def test_depth_override(self):
        schedule = parse_schedule_spec("constant:a=0.1,N=5")
        assert schedule.at_depth(2) == ErrorSchedule.constant(0.1, 2)
        with pytest.raises(ScheduleParseError):
            parse_schedule_spec("explicit:0.1,0.2").at_depth(3)

    @pytest.mark.parametrize(
        "bad",
        [
            "nope:a=0.1,N=5",
            "constant:a=0.1",
            "constant:a=x,N=2",
            "constant:a=0.1,N=2.5",
            "constant:a=0.1,N=2,z=3",
            "bleed:a1=0.2,N=3",
            "explicit:0.1,zz",
            "constant:a=0.1,N=2;mode=weird",
            "constant",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ScheduleParseError):
            parse_schedule_spec(bad)

    def test_additive_suffix_on_constant_violates_invariant(self):
        with pytest.raises(ScheduleParseError, match=r"geometric:a=<r>,N=<n>"):
            parse_schedule_spec("constant:a=0.1,N=3;mode=additive")
        with pytest.raises(ScheduleParseError, match=r"geometric:a=<r>,N=<n>"):
            ErrorSchedule("constant", 3, 0.1, mode=Mode.ADDITIVE)

    @pytest.mark.parametrize("text", [
        "constant:a=0.1,N={n};mode=additive", "constant:a=1e-16,N={n};mode=additive",
        "bleed:a1=0.3,lambda=0.9,N={n};mode=additive",
        "bleed:a1=0.3,lambda=0.3,N={n};mode=additive",
        "bleed:a1=0.2,lambda=0.2000001,N={n};mode=additive",
        "bleed:a1=0.01,lambda=0.0001,N={n};mode=additive",
        "bleed:a1=0.01,lambda=1.2,N={n};mode=additive",
        "bleed:a1=1e-17,lambda=1.5,N={n};mode=additive",
        "constant:a=0.9999999999999999,N={n};mode=additive",
        "bleed:a1=1.5,lambda=2,N={n};mode=additive"])
    def test_additive_suffix_is_refused_on_rate_formulas(self, text):
        # Only an explicit list gives its rates; geometric is the additive regime.
        errors = set()
        for n in (*range(MAX_ENUMERATION_DEPTH + 2), 10**9):
            with pytest.raises(ScheduleParseError) as err:
                parse_schedule_spec(text.format(n=n))
            errors.add(str(err.value))
        assert errors == {"mode=additive applies only to explicit: lists; "
                          "the additive regime a, a^2, ..., a^N is geometric:a=<r>,N=<n>"}
