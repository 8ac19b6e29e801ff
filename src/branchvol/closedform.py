"""Closed-form raw moments for the three error-rate regimes.

For multiplicative schedules the branch scale is a product of independent
two-point factors, so E[scale^m] factorizes into per-layer even binomial
parts h_m(a) = ((1+a)^m + (1-a)^m) / 2. Constant rates give h_m(a)^N
(explosive in N for any a > 0), geometrically decaying rates give
convergent q-Pochhammer products, and additive offset schedules give
geometric sums that stay finite for every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import check_depth, check_order, check_rate, check_sigma, power
from .branching import NonPositiveScaleError
from .special import (
    INFINITY,
    UnsupportedOrderError,
    q_pochhammer,
    scale_mixture_moment,
)

_LN_MAX = 709.0  # exp overflows just above this

# Factor constants splitting 1 + 6u + u^2 = (1 - A u)(1 - B u).
_M4_A = 2.0 * math.sqrt(2.0) - 3.0
_M4_B = -(3.0 + 2.0 * math.sqrt(2.0))


def _h_minus_one(order: int, a: float) -> float:
    # E[(1 + a s)^order] - 1 for a fair sign s: the even binomial terms
    # beyond the constant one. All terms positive, so no cancellation.
    return math.fsum(
        math.comb(order, i) * a**i for i in range(2, order + 1, 2)
    )


def _even_rate_factor(order: int, a: float) -> float:
    """E[(1 + a s)^order] for a fair sign s."""
    return 1.0 + _h_minus_one(order, a)


def _growth(order: int, a: float, n: int) -> float:
    # h_order(a)^n in log space; returns inf once past the double range.
    arg = n * math.log1p(_h_minus_one(order, a))
    return math.exp(arg) if arg < _LN_MAX else math.inf


def moment_constant_a(order: int, mu: float, sigma: float, a: float, n: int) -> float:
    """Raw moment E[X^order] after n recursions at a constant rate.

    With mu = 0 the even orders reduce to (a^2+1)^n sigma^2,
    3 (a^4+6a^2+1)^n sigma^4, 15 (a^6+15a^4+15a^2+1)^n sigma^6 and
    105 (a^8+28a^6+70a^4+28a^2+1)^n sigma^8; odd orders vanish.
    """
    check_order(order, lowest=1)
    check_rate(a)
    check_sigma(sigma)
    check_depth(n)
    return scale_mixture_moment(order, mu, sigma, lambda m: _growth(m, a, n))


def moment_multiplicative(order: int, mu: float, sigma: float, rates) -> float:
    """Raw moment E[X^order] for an arbitrary multiplicative rate sequence.

    E[scale^m] is the product over layers of the even factors h_m(a(j)),
    which is exact for any schedule; the constant and bleed forms are the
    special cases of this product.
    """
    check_order(order, lowest=1)
    check_sigma(sigma)
    rates = tuple(float(r) for r in rates)
    for r in rates:
        check_rate(r)
    return scale_mixture_moment(
        order, mu, sigma, lambda m: math.prod(_even_rate_factor(m, r) for r in rates)
    )


def variance_growth_factor(a: float, n: int) -> float:
    """(1 + a^2)^n, the variance multiplier compounded over n recursions.

    Evaluated as exp(n log1p(a^2)) so tiny rates with enormous depths stay
    accurate; unbounded in n for every a > 0 (returns inf past the double
    range).
    """
    check_rate(a)
    check_depth(n)
    arg = n * math.log1p(a * a)
    return math.exp(arg) if arg < _LN_MAX else math.inf


def kurtosis_constant_a(a: float, n: int) -> float:
    """Mixture kurtosis 3 ((a^4+6a^2+1)/(a^2+1)^2)^n; equals 3 iff a = 0."""
    check_rate(a)
    check_depth(n)
    ratio = _even_rate_factor(4, a) / _even_rate_factor(2, a) ** 2
    arg = n * math.log(ratio)
    return 3.0 * (math.exp(arg) if arg < _LN_MAX else math.inf)


@dataclass(frozen=True)
class BleedParams:
    """Geometrically decaying rate sequence a1, lam a1, lam^2 a1, ...

    ``n`` is the depth or INFINITY for the limit; lam = 1 is allowed for
    finite depths (reducing to the constant-rate forms) but the limit
    requires lam < 1.
    """

    a1: float
    lam: float
    n: int | float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        check_rate(self.a1)
        if not (math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam!r}")
        check_sigma(self.sigma)
        if self.n != INFINITY:
            check_depth(self.n)


def m2_bleed(params: BleedParams) -> float:
    """Second moment sigma^2 prod_{i=0}^{n-1} (1 + a1^2 lam^(2i)).

    For n = INFINITY the product converges whenever lam < 1; the limit for
    a1 = 0.2, lam = 0.9 evaluates to about 1.23151 sigma^2.
    """
    return power(params.sigma, 2, "sigma") * q_pochhammer(-params.a1**2, params.lam**2, params.n)


def m4_bleed(params: BleedParams) -> float:
    """Fourth moment 3 sigma^4 prod_{i=0}^{n-1} (1 + 6 a1^2 lam^(2i) + a1^4 lam^(4i)).

    Each factor splits into two linear q-Pochhammer factors, so the limit
    is a product of two convergent symbols; for a1 = 0.2, lam = 0.9 it is
    about 9.8806 sigma^4.
    """
    a2 = params.a1**2
    q = params.lam**2
    return (
        3.0
        * power(params.sigma, 4, "sigma")
        * q_pochhammer(_M4_A * a2, q, params.n)
        * q_pochhammer(_M4_B * a2, q, params.n)
    )


def _geometric_sum(r: float, n) -> float:
    # sum_{j=1}^{n} r^j for 0 <= r < 1; n may be INFINITY.
    if n == INFINITY:
        return r / (1.0 - r)
    if n == 0:
        return 0.0
    return r * (1.0 - r**n) / (1.0 - r)


def moments_additive(order: int, mu: float, sigma: float, a: float, n) -> float:
    """Raw moments {1, 2, 4} of the additive-offset mixture.

    The signed offset s = sum_j e_j a^j has E[s^2] = sum_j a^(2j) and
    E[s^4] = 3 E[s^2]^2 - 2 sum_j a^(4j), giving
      M1 = mu
      M2 = mu^2 + sigma^2 (1 + E[s^2])
      M4 = mu^4 + 6 mu^2 sigma^2 (1 + E[s^2]) + 3 sigma^4 (1 + 6 E[s^2] + E[s^4]).
    Requires sum_j a^j < 1 so every branch scale stays positive (for
    n = INFINITY this means a < 1/2).
    """
    if order not in (1, 2, 4):
        raise UnsupportedOrderError(
            f"additive closed forms cover orders 1, 2 and 4, got {order!r}"
        )
    check_rate(a)
    check_sigma(sigma)
    if n != INFINITY:
        check_depth(n)
    if _geometric_sum(a, n) >= 1.0:
        raise NonPositiveScaleError(
            f"offset sum of rate {a} over depth {n} reaches 1; branch scales hit 0"
        )
    if order == 1:
        return mu
    m2 = _geometric_sum(a * a, n)
    if order == 2:
        return mu * mu + sigma * sigma * (1.0 + m2)
    q4 = _geometric_sum(a**4, n)
    e_s4 = 3.0 * m2 * m2 - 2.0 * q4
    return (
        power(mu, 4, "mu")
        + 6.0 * mu * mu * sigma * sigma * (1.0 + m2)
        + 3.0 * power(sigma, 4, "sigma") * (1.0 + 6.0 * m2 + e_s4)
    )
