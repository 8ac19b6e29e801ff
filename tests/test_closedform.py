"""Closed-form moments versus full branch enumeration, bleed limits, and
the additive regime."""

import math

import mpmath
import numpy as np
import pytest

from branchvol.branching import (
    ErrorSchedule,
    GaussianBase,
    NonPositiveScaleError,
    build_mixture,
)
from branchvol.closedform import schedule_moments, variance_growth_factor
from branchvol.mixstats import mixture_raw_moments
from branchvol.special import INFINITY, UnsupportedOrderError


def _mixture(sched, mu=0.0, sigma=1.0):
    return build_mixture(GaussianBase(mu, sigma), sched)


def _bleed(a1, lam, n, orders=(2, 4), sigma=1.0):
    # The centered bleed moments of orders at depth n, or the limits at
    # n = INFINITY (the schedule's own depth is then not read).
    return schedule_moments(ErrorSchedule.bleed(a1, lam, 0 if n == INFINITY else n), orders,
                            0.0, sigma, n)


def _additive(order, mu, sigma, a, n):
    # The geometric schedule's moment of one order at depth n, or its limit.
    return schedule_moments(ErrorSchedule.geometric(a, 0 if n == INFINITY else n), [order],
                            mu, sigma, n)[0]


class TestMomentConstantA:
    def test_second_moment_value(self):
        val = schedule_moments(ErrorSchedule.constant(0.1, 10), [2], 0.0, 1.0, 10)[0]
        assert math.isclose(val, 1.1046221254112045, rel_tol=1e-13)

    def test_zero_rate_is_gaussian(self):
        (m4,) = schedule_moments(ErrorSchedule.constant(0.0, 7), [4], 0.0, 1.0, 7)
        (m2,) = schedule_moments(ErrorSchedule.constant(0.0, 3), [2], 0.5, 2.0, 3)
        assert math.isclose(m4, 3.0, rel_tol=1e-15)
        assert math.isclose(m2, 4.25, rel_tol=1e-15)

    def test_centered_even_orders_match_enumeration(self):
        for n in (1, 4, 8, 12):
            for a in (0.01, 0.1, 0.3):
                sched = ErrorSchedule.constant(a, n)
                orders = (2, 4, 6, 8)
                closed = schedule_moments(sched, orders, 0.0, 1.0, n)
                enum = mixture_raw_moments(_mixture(sched), orders)
                for order, c, e in zip(orders, closed, enum):
                    assert math.isclose(c, e, rel_tol=1e-12), (n, a, order)

    def test_general_location_matches_enumeration(self):
        # Covers the odd orders and the mixed mu-sigma terms, order 8 included.
        for a in (0.1, 0.3):
            sched = ErrorSchedule.constant(a, 6)
            closed = schedule_moments(sched, range(1, 9), 0.7, 1.3, 6)
            enum = mixture_raw_moments(_mixture(sched, mu=0.7, sigma=1.3), range(1, 9))
            for order, c, e in zip(range(1, 9), closed, enum):
                assert math.isclose(c, e, rel_tol=1e-12), (a, order)

    def test_order_guard(self):
        for order in (0, 9):
            with pytest.raises(UnsupportedOrderError):
                schedule_moments(ErrorSchedule.constant(0.1, 2), [order], 0.0, 1.0, 2)


def _listed(sched):
    # The same rates as an explicit list: their layer product, left to right.
    return ErrorSchedule.explicit(sched.rates)


def _random_schedule(rng, style, n):
    # One of constant, falling, lambda = 1 and rising bleed, explicit and
    # geometric rules at depth n, every rate below 1 (geometric below 1/2).
    a = float(rng.uniform(0.0, 0.9))
    if style == 0:
        return ErrorSchedule.constant(a, n)
    if style in (1, 2):
        return ErrorSchedule.bleed(a, float(rng.uniform(0.0, 1.0)) if style == 1 else 1.0, n)
    if style == 3:
        lam = float(rng.uniform(1.0, 1.5))
        return ErrorSchedule.bleed(a / lam ** max(n - 1, 0), lam, n)
    if style == 4:
        return ErrorSchedule.explicit(rng.uniform(0.0, 0.9, size=n))
    return ErrorSchedule.geometric(float(rng.uniform(0.0, 0.45)), n)


class TestScheduleMoments:
    def test_matches_enumeration_on_every_kind(self):
        # Additive rules have closed forms at orders 1, 2 and 4 only.
        rng = np.random.default_rng(2206)
        orders = list(range(1, 9))
        for i in range(120):
            sched = _random_schedule(rng, i % 6, int(rng.integers(0, 13)))
            mu = (0.0, 0.05)[i // 6 % 2]
            sigma = float(rng.uniform(0.5, 2.0))
            closed = schedule_moments(sched, orders, mu, sigma, sched.depth)
            enum = mixture_raw_moments(_mixture(sched, mu, sigma), orders)
            for k, c, e in zip(orders, closed, enum):
                if sched.kind == "geometric" and k not in (1, 2, 4):
                    assert c is None
                    continue
                assert abs(c - e) <= 1e-12 * max(abs(c), abs(e)), (sched, mu, k, c, e)

    def test_matches_enumeration_on_arbitrary_schedules(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(0, 9))
            sched = ErrorSchedule.explicit(rng.uniform(0.0, 0.6, size=n))
            mu = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.5, 2.0))
            mix = _mixture(sched, mu=mu, sigma=sigma)
            for order in (1, 2, 3, 4, 6, 8):
                closed = schedule_moments(sched, [order], mu, sigma, n)[0]
                enum = mixture_raw_moments(mix, [order])[0]
                assert math.isclose(closed, enum, rel_tol=1e-12, abs_tol=1e-13)

    def test_reduces_to_constant_form(self):
        val1 = schedule_moments(ErrorSchedule.explicit([0.2] * 6), [4], 0.0, 1.0, 6)[0]
        val2 = schedule_moments(ErrorSchedule.constant(0.2, 6), [4], 0.0, 1.0, 6)[0]
        assert math.isclose(val1, val2, rel_tol=1e-13)

    @pytest.mark.parametrize("mu", [0.0, 0.05, -1.3])
    def test_many_orders_keep_the_bits_of_one(self, mu):
        # Each E[S^m] is taken once for all orders, with the bits of a
        # one-order call, at depth N and in the limit.
        orders = [8, 1, 4, 2, 7, 3, 6, 5, 4]
        for sched in (ErrorSchedule.bleed(0.2, 0.9, 300), ErrorSchedule.bleed(0.01, 1.001, 300),
                      ErrorSchedule.constant(0.2, 300), ErrorSchedule.geometric(0.2, 300),
                      _listed(ErrorSchedule.bleed(0.2, 0.9, 300))):
            for n in (sched.depth, INFINITY):
                assert schedule_moments(sched, orders, mu, 1.3, n) == [
                    schedule_moments(sched, [k], mu, 1.3, n)[0] for k in orders]
            with pytest.raises(UnsupportedOrderError):
                schedule_moments(sched, [2, 9], mu, 1.3, sched.depth)

    def test_limits_only_where_the_schedule_has_one(self):
        orders = list(range(1, 9))
        bleed = schedule_moments(ErrorSchedule.bleed(0.2, 0.9, 5), orders, 0.05, 1.0, INFINITY)
        assert [k for k, v in zip(orders, bleed) if v is not None] == [2, 4]
        geometric = schedule_moments(ErrorSchedule.geometric(0.2, 5), orders, 0.05, 1.0,
                                     INFINITY)
        assert [k for k, v in zip(orders, geometric) if v is not None] == [1, 2, 4]
        for sched in (ErrorSchedule.bleed(0.2, 1.0, 5), ErrorSchedule.bleed(0.2, 1.2, 5),
                      ErrorSchedule.constant(0.2, 5), ErrorSchedule.geometric(0.5, 5),
                      ErrorSchedule.explicit([0.2, 0.1])):
            assert schedule_moments(sched, orders, 0.05, 1.0, INFINITY) == [None] * 8

    def test_depth_is_checked_against_the_rule(self):
        with pytest.raises(ValueError):  # a rate past 1 at depth 20
            schedule_moments(ErrorSchedule.bleed(0.2, 1.2, 5), [2], 0.0, 1.0, 20)
        with pytest.raises(ValueError):  # a list keeps its own depth
            schedule_moments(ErrorSchedule.explicit([0.2, 0.1]), [2], 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            schedule_moments(ErrorSchedule.constant(0.2, 5), [2], 0.0, 0.0, 5)


class TestVarianceGrowth:
    def test_identity_cases(self):
        assert variance_growth_factor(0.0, 10**9) == 1.0
        assert variance_growth_factor(0.3, 0) == 1.0

    def test_tiny_rate_huge_depth(self):
        # (1 + 1e-8)^1e6 = e^0.01 to high accuracy.
        val = variance_growth_factor(0.0001, 10**6)
        assert math.isclose(val, 1.0100501670841681, rel_tol=1e-9)

    def test_moderate(self):
        assert math.isclose(
            variance_growth_factor(0.1, 25), 1.2824319950172336, rel_tol=1e-12
        )

    def test_unbounded(self):
        # Doubles at a computable depth, then keeps compounding past any bound.
        n_double = math.ceil(math.log(2.0) / math.log1p(1e-8))
        assert variance_growth_factor(0.0001, n_double) > 2.0
        assert variance_growth_factor(0.0001, 10 * n_double) > 1000.0
        assert variance_growth_factor(0.1, 10**6) == math.inf

    def test_finite_up_to_the_largest_double(self):
        # 71304 log1p(0.01) = 709.5 lies between 709 and ln(max double) =
        # 709.78, where the result is finite.
        with mpmath.workdps(50):
            want = (1 + mpmath.mpf(0.1) ** 2) ** 71304
        got = variance_growth_factor(0.1, 71304)
        assert math.isfinite(got) and abs(got - want) <= 1e-12 * want, (got, want)
        assert variance_growth_factor(0.1, 71400) == math.inf


class TestBleed:
    def test_depth_two_formula(self):
        a1, lam = 0.3, 0.7
        expected = (a1**2 + 1) * (a1**2 * lam**2 + 1)
        assert math.isclose(_bleed(a1, lam, 2, [2])[0], expected, rel_tol=1e-14)

    def test_zero_rate(self):
        assert _bleed(0.0, 0.9, INFINITY, [2], sigma=3.0) == [9.0]
        assert _bleed(0.0, 0.9, 5, [4]) == [3.0]

    def test_lambda_one_collapses_to_constant_rate(self):
        for n in (1, 5, 12):
            constant = schedule_moments(ErrorSchedule.constant(0.2, n), [2, 4], 0.0, 1.0, n)
            for got, want in zip(_bleed(0.2, 1.0, n), constant):
                assert math.isclose(got, want, rel_tol=1e-13), n

    def test_matches_enumeration(self):
        for n in (1, 3, 8):
            enum = mixture_raw_moments(_mixture(ErrorSchedule.bleed(0.2, 0.9, n)), [2, 4])
            for got, want in zip(_bleed(0.2, 0.9, n), enum):
                assert math.isclose(got, want, rel_tol=1e-12), n

    def test_limits_against_direct_products(self):
        # Independent oracle: run the factor products directly to convergence.
        m2_expected = 1.0
        m4_expected = 3.0
        i = 0
        while True:
            u = 0.04 * 0.81**i
            if 1.0 + u == 1.0:
                break
            m2_expected *= 1.0 + u
            m4_expected *= 1.0 + 6.0 * u + u * u
            i += 1
        m2, m4 = _bleed(0.2, 0.9, INFINITY)
        assert math.isclose(m2, m2_expected, rel_tol=1e-10)
        assert math.isclose(m4, m4_expected, rel_tol=1e-10)
        assert math.isclose(m2_expected, 1.2315142313388336, rel_tol=1e-9)
        assert math.isclose(m4_expected, 9.8806226088161086, rel_tol=1e-9)

    @pytest.mark.parametrize("a1, lam", [(0.2, 0.9), (0.5, 0.5), (0.1, 0.99)])
    def test_limits_against_mpmath(self, a1, lam):
        # 50-digit products over the rates the doubles a1 and lam give,
        # run until a factor is within 1e-45 of 1.
        with mpmath.workdps(50):
            for order, got in zip((2, 4), _bleed(a1, lam, INFINITY)):
                want, a = mpmath.mpf(order - 1), mpmath.mpf(a1)
                while a**2 > 1e-46:
                    want *= ((1 + a) ** order + (1 - a) ** order) / 2
                    a *= lam
                assert abs(got - want) <= 1e-14 * want, (order, got, want)

    @pytest.mark.parametrize("a1, lam, n", [(0.2, 0.9, 10), (0.5, 0.5, 3), (0.1, 0.99, 2000),
                                            (0.3, 1.0, 7), (0.7, 0.999, 400), (0.2, 0.0, 4)])
    def test_finite_depths_are_the_layer_product(self, a1, lam, n):
        # The same bits as the product over the schedule's rates listed,
        # and as the CLI's closed_form column.
        sched = ErrorSchedule.bleed(a1, lam, n)
        for sigma in (1.0, 1.7):
            want = schedule_moments(_listed(sched), [2, 4], 0.0, sigma, n)
            assert schedule_moments(sched, [2, 4], 0.0, sigma, n) == want

    def test_the_falling_stop_keeps_every_bit_of_the_full_product(self):
        # The product stops at the first factor that rounds to 1; at a
        # finite depth that is the product over every rate, bit for bit.
        # Rising rates take every layer, as generated.
        rng = np.random.default_rng(21)
        for i in range(60):
            a1, lam = float(rng.uniform(0.0, 0.99)), float(rng.uniform(0.0, 1.0))
            mu, sigma = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
            for n in (1, 7, 100, 3000):
                sched = ErrorSchedule.bleed(a1, lam, n)
                if i % 4 == 3:  # rising rates that end at a1
                    rise = 1.0 + lam / n
                    sched = ErrorSchedule.bleed(a1 / rise ** (n - 1), rise, n)
                got = schedule_moments(sched, range(1, 9), mu, sigma, n)
                want = schedule_moments(_listed(sched), range(1, 9), mu, sigma, n)
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (sched, n)

    def test_monotone_in_depth_and_decay(self):
        vals_n = [_bleed(0.2, 0.9, n, [2])[0] for n in range(0, 20)]
        assert all(a <= b for a, b in zip(vals_n, vals_n[1:]))
        vals_lam = [_bleed(0.2, lam, 10, [4])[0] for lam in (0.1, 0.5, 0.9, 1.0)]
        assert all(a <= b for a, b in zip(vals_lam, vals_lam[1:]))

    def test_containment_vs_explosion(self):
        # Constant rate explodes; bleed stays finite in the limit.
        assert variance_growth_factor(0.2, 10**6) == math.inf
        assert _bleed(0.2, 0.9, INFINITY, [2])[0] < 1.3

    def test_no_limit_at_lambda_one(self):
        assert _bleed(0.2, 1.0, INFINITY) == [None, None]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            _bleed(1.0, 0.9, 3)
        with pytest.raises(ValueError):
            _bleed(0.2, 0.9, -1)
        with pytest.raises(ValueError):
            _bleed(0.2, 0.9, 3, sigma=0.0)

    def test_a_rising_bleed_has_finite_depths(self):
        # Rates 0.2, 0.3 and 0.45: the product over them, as listed.
        got = _bleed(0.2, 1.5, 3)
        assert got == schedule_moments(_listed(ErrorSchedule.bleed(0.2, 1.5, 3)), [2, 4],
                                       0.0, 1.0, 3)
        assert math.isclose(got[0], 1.04 * 1.09 * 1.2025, rel_tol=1e-14)


class TestKurtosis:
    """The constant-rate kurtosis M4 / M2^2 from schedule_moments: 3 at
    a = 0, growing in N, and 3 ((a^4 + 6a^2 + 1)/(a^2 + 1)^2)^N."""

    @staticmethod
    def _kurtosis(a, n):
        m2, m4 = schedule_moments(ErrorSchedule.constant(a, n), [2, 4], 0.0, 1.0, n)
        return m4 / m2**2

    def test_gaussian_for_zero_rate(self):
        assert self._kurtosis(0.0, 12) == 3.0

    def test_excess_grows(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = float(rng.uniform(0.01, 0.5))
            n = int(rng.integers(1, 30))
            k = self._kurtosis(a, n)
            assert k > 3.0
            assert k < self._kurtosis(a, n + 1)

    def test_matches_the_closed_ratio(self):
        a, n = 0.2, 7
        ratio = (a**4 + 6 * a**2 + 1) / (a**2 + 1) ** 2
        assert math.isclose(self._kurtosis(a, n), 3.0 * ratio**n, rel_tol=1e-12)


class TestAdditive:
    def test_zero_rate_is_gaussian(self):
        mu, sigma = 0.4, 1.5
        assert _additive(1, mu, sigma, 0.0, 5) == mu
        assert math.isclose(
            _additive(2, mu, sigma, 0.0, 5), mu**2 + sigma**2, rel_tol=1e-15
        )
        assert math.isclose(
            _additive(4, mu, sigma, 0.0, 5),
            mu**4 + 6 * mu**2 * sigma**2 + 3 * sigma**4,
            rel_tol=1e-15,
        )

    def test_first_moment_always_mu(self):
        for a in (0.0, 0.1, 0.3):
            for n in (0, 2, 10, INFINITY):
                assert _additive(1, 0.7, 1.0, a, n) == 0.7

    def test_limit_second_moment(self):
        val = _additive(2, 0.0, 1.0, 0.1, INFINITY)
        assert math.isclose(val, 1.0 + 0.01 / 0.99, rel_tol=1e-14)
        assert math.isclose(val, 1.0101010101010102, rel_tol=1e-14)

    def test_matches_enumeration(self):
        for a in (0.1, 0.3):
            for n in (1, 4, 9, 12):
                for mu in (0.0, 0.7):
                    sched = ErrorSchedule.geometric(a, n)
                    closed = schedule_moments(sched, (1, 2, 4), mu, 1.2, n)
                    enum = mixture_raw_moments(_mixture(sched, mu=mu, sigma=1.2), (1, 2, 4))
                    for order, c, e in zip((1, 2, 4), closed, enum):
                        assert math.isclose(c, e, rel_tol=1e-12), (a, n, mu, order)

    def test_limit_approached_by_finite_depths(self):
        limit = _additive(4, 0.0, 1.0, 0.2, INFINITY)
        vals = [_additive(4, 0.0, 1.0, 0.2, n) for n in (1, 2, 5, 10, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert math.isclose(vals[-1], limit, rel_tol=1e-10)

    def test_positivity_guard(self):
        with pytest.raises(NonPositiveScaleError):
            _additive(2, 0.0, 1.0, 0.6, 3)
        assert _additive(4, 0.0, 1.0, 0.5, INFINITY) is None  # no limit at a >= 1/2

    def test_no_closed_form_at_orders_3_and_5_to_8(self):
        orders = range(1, 9)
        for n in (4, INFINITY):
            got = schedule_moments(ErrorSchedule.geometric(0.1, 4), orders, 0.0, 1.0, n)
            assert [k for k, v in zip(orders, got) if v is None] == [3, 5, 6, 7, 8], n
