"""Closed-form raw moments for the three error-rate regimes.

For multiplicative schedules the branch scale is a product of independent
two-point factors, so E[scale^m] factorizes into per-layer even binomial
parts h_m(a) = ((1+a)^m + (1-a)^m) / 2. Constant rates give h_m(a)^N
(explosive in N for any a > 0); any other rate list, and geometrically
decaying ("bleed") rates out to N = INFINITY, take the product of the
per-layer factors, which converges for the decaying ones. Additive offset
schedules give geometric sums that stay finite for every depth.
schedule_moments is the one entry point: it decides which form, or limit, a
schedule has, and hands each E[scale^m] to special.scale_mixture_moment.
variance_growth_factor is a separate constant-rate diagnostic with its own
formula.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._checks import LN_MAX, check_depth, check_order, check_rate, check_sigma
from .branching import ErrorSchedule, Mode, NonPositiveScaleError, _times_power
from .special import INFINITY, scale_mixture_moment


def _h_minus_one(order: int, a: float) -> float:
    # E[(1 + a s)^order] - 1 for a fair sign s: the even binomial terms
    # beyond the constant one. All terms positive, so no cancellation.
    return math.fsum(
        math.comb(order, i) * a**i for i in range(2, order + 1, 2)
    )


def _layer_product(order: int, rates, falling: bool = False) -> float:
    # prod_j h_order(a_j) over the rates, left to right. Rates that never
    # rise (falling) give factors that never rise, so the product stops at
    # the first factor that rounds to 1: every later one does too, and the
    # rates may be endless. It stops as well once the product is inf.
    product = 1.0
    for a in rates:
        factor = 1.0 + _h_minus_one(order, a)
        if falling and factor == 1.0 or product == math.inf:
            break
        product *= factor
    return product


def _capped_exp(arg: float) -> float:
    # exp(arg), or inf past the double range.
    return math.exp(arg) if arg < LN_MAX else math.inf


def _growth(order: int, a: float, n: int) -> float:
    # h_order(a)^n in log space.
    return _capped_exp(n * math.log1p(_h_minus_one(order, a)))


def _moments(orders, mu: float, sigma: float, scale_moment) -> list[float]:
    # scale_mixture_moment of each order in turn, each E[S^m] taken once.
    scale_moment = functools.cache(scale_moment)
    return [scale_mixture_moment(order, mu, sigma, scale_moment) for order in orders]


def _bleed_moments(orders, mu: float, sigma: float, a1: float, lam: float, n) -> list[float]:
    # The layer product over the rates a1 lam^k, k < n, generated as the
    # schedule's own rates are; with lam <= 1 they never rise, so n may be
    # INFINITY when lam < 1.
    def scale_moment(m: int) -> float:
        layers = itertools.count() if n == INFINITY else range(n)
        return _layer_product(m, (_times_power(a1, lam, k) for k in layers), lam <= 1.0)
    return _moments(orders, mu, sigma, scale_moment)


def schedule_moments(schedule: ErrorSchedule, orders, mu: float, sigma: float, n) -> list:
    """Raw moments E[X^k] of mu + sigma S Z, S the branch scale of schedule,
    for each order k of orders: the closed form at depth n, or the limit at
    n = INFINITY, else None; each E[S^m] is taken once.

    Additive forms cover orders 1, 2 and 4. Constant rates diverge and
    lists end; a geometric limit needs a < 1/2, a bleed one lambda < 1
    (orders 2 and 4). n is a depth the schedule's rule allows (a list only
    its own) or INFINITY; no rate tuple is built.
    """
    orders = list(orders)
    for order in orders:
        check_order(order, lowest=1)
    check_sigma(sigma)
    if n != INFINITY:
        schedule = schedule.at_depth(n)
    kind, a, lam = schedule.kind, schedule.a, schedule.lam
    if schedule.mode is Mode.ADDITIVE:
        if n == INFINITY and (kind == "explicit" or a >= 0.5):
            return [None] * len(orders)
        return [_moments_additive(k, mu, sigma, a, n) if k in (1, 2, 4) else None
                for k in orders]
    if n == INFINITY:
        if kind != "bleed" or lam >= 1.0:
            return [None] * len(orders)
        ks = [k for k in orders if k in (2, 4)]
        limits = dict(zip(ks, _bleed_moments(ks, mu, sigma, a, lam, INFINITY)))
        return [limits.get(k) for k in orders]
    if kind == "constant":
        return _moments(orders, mu, sigma, lambda m: _growth(m, a, n))
    if kind == "bleed":
        return _bleed_moments(orders, mu, sigma, a, lam, n)
    return _moments(orders, mu, sigma, lambda m: _layer_product(m, schedule.listed))


def variance_growth_factor(a: float, n: int) -> float:
    """(1 + a^2)^n, the variance multiplier compounded over n recursions.

    Evaluated as exp(n log1p(a^2)) so tiny rates with enormous depths stay
    accurate; unbounded in n for every a > 0 (returns inf past the double
    range).
    """
    check_rate(a)
    check_depth(n)
    return _capped_exp(n * math.log1p(a * a))


def _geometric_sum(r: float, n) -> float:
    # sum_{j=1}^{n} r^j for 0 <= r < 1; n may be INFINITY.
    if n == INFINITY:
        return r / (1.0 - r)
    return r * (1.0 - r**n) / (1.0 - r)


def _moments_additive(order: int, mu: float, sigma: float, a: float, n) -> float:
    # Raw moment 1, 2 or 4 of the additive-offset mixture. The branch scale
    # is S = 1 + s for the signed offset s = sum_j e_j a^j, with
    # E[s^2] = sum_j a^(2j) and E[s^4] = 3 E[s^2]^2 - 2 sum_j a^(4j), so
    # E[S^2] = 1 + E[s^2] and E[S^4] = 1 + 6 E[s^2] + E[s^4]. Every branch
    # scale stays positive only while sum_j a^j < 1 (a < 1/2 at INFINITY).
    if _geometric_sum(a, n) >= 1.0:
        raise NonPositiveScaleError(
            f"offset sum of rate {a} over depth {n} reaches 1; branch scales hit 0"
        )
    m2 = _geometric_sum(a * a, n)
    e_s4 = 3.0 * m2 * m2 - 2.0 * _geometric_sum(a**4, n)
    scale = {2: 1.0 + m2, 4: 1.0 + 6.0 * m2 + e_s4}
    return scale_mixture_moment(order, mu, sigma, scale.__getitem__)
