"""Special functions used throughout the package.

Provides the complementary error function (the stdlib ``math.erfc`` with an
exact reflection for negative arguments), its logarithm for deep-tail work
(``ln erfc`` up to a switch point, a fixed-length continued fraction beyond
it), array forms of both for the vectorized tail kernel, exact Gaussian raw
moments up to order 8, the Gaussian absolute first moment, and the
q-Pochhammer product with support for the infinite-depth limit.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import UnsupportedOrderError  # noqa: F401  (public home of the error)
from ._checks import check_depth, check_order, check_sigma

INFINITY = math.inf
"""Depth marker for infinite products and moment limits."""

_LN_SQRT_PI = 0.5 * math.log(math.pi)

# log_erfc takes ln(erfc(z)) below this point and the continued fraction at
# and above it, where erfc(z) < 1e-273 heads for underflow near z = 26.6.
_LOG_ERFC_SWITCH = 25.0
# Continued-fraction depth. Truncating after k terms leaves a relative error
# of about k! / (2 z^2)^k: below 1e-24 for 10 terms at the switch point.
_CF_TERMS = 10


class DivergenceError(ValueError):
    """Infinite product cannot converge for the given ratio."""


def _erfc_cf(z):
    # F(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + 2/(z + ...))))), so that
    # erfc(z) = exp(-z^2)/sqrt(pi) * F(z); evaluated bottom-up over a fixed
    # number of terms, for a float or an array of z >= _LOG_ERFC_SWITCH.
    t = z
    for k in range(_CF_TERMS, 0, -1):
        t = z + 0.5 * k / t
    return 1.0 / t


def erfc(z: float) -> float:
    """Complementary error function 1 - erf(z).

    The stdlib math.erfc; negative arguments use the exact reflection
    erfc(-z) = 2 - erfc(z). Underflows to 0.0 for z beyond ~26.6.
    """
    if not math.isfinite(z):
        raise ValueError(f"erfc requires a finite argument, got {z!r}")
    if z < 0.0:
        return 2.0 - math.erfc(-z)
    return math.erfc(z)


def log_erfc(z: float) -> float:
    """Natural logarithm of erfc(z), stable arbitrarily far into the tail.

    At and above the switch point this evaluates -z^2 - log(sqrt(pi)) +
    log(F(z)) with the continued fraction F, so it keeps full relative
    accuracy long after erfc itself underflows.
    """
    if not math.isfinite(z):
        raise ValueError(f"log_erfc requires a finite argument, got {z!r}")
    if z < _LOG_ERFC_SWITCH:
        return math.log(erfc(z))
    return -z * z - _LN_SQRT_PI + math.log(_erfc_cf(z))


def erfc_array(z: np.ndarray) -> np.ndarray:
    """erfc over a 1-d float array of finite arguments, with erfc's formulas."""
    e = np.fromiter(map(math.erfc, np.abs(z).tolist()), np.float64, z.size)
    return np.where(z < 0.0, 2.0 - e, e)


def log_erfc_array(z: np.ndarray) -> np.ndarray:
    """log_erfc over a 1-d float array of finite arguments, with its formulas."""
    far = z >= _LOG_ERFC_SWITCH
    if not far.any():
        return np.log(erfc_array(z))
    out = np.empty(z.shape)
    near = ~far
    out[near] = np.log(erfc_array(z[near]))
    zf = z[far]
    out[far] = -zf * zf - _LN_SQRT_PI + np.log(_erfc_cf(zf))
    return out


# E[Z^(2j)] = (2j-1)!! for a standard normal, j = 0..4.
_EVEN_STANDARD_MOMENTS = (1.0, 1.0, 3.0, 15.0, 105.0)


def gaussian_raw_moment(order: int, mu: float, sigma: float) -> float:
    """Exact raw moment E[X^order] of X ~ Normal(mu, sigma^2).

    Uses E[X^k] = sum_j C(k, 2j) (2j-1)!! sigma^(2j) mu^(k-2j); odd orders
    with mu = 0 return exactly 0.0.
    """
    check_order(order)
    check_sigma(sigma)
    return scale_mixture_moment(order, mu, sigma, lambda m: 1.0)


def scale_mixture_moment(order: int, mu: float, sigma: float, scale_moment) -> float:
    """Raw moment E[X^order] of X = mu + sigma S Z, Z standard normal independent of S.

    E[X^k] = sum_{m even} C(k, m) (m-1)!! mu^(k-m) sigma^m E[S^m], where
    scale_moment(m) gives E[S^m] for even m >= 2.
    """
    total = 0.0
    for m in range(0, order + 1, 2):
        mu_pow = mu ** (order - m)
        if mu_pow == 0.0:  # skipped, so an infinite E[S^m] cannot turn 0 into nan
            continue
        total += (
            math.comb(order, m)
            * _EVEN_STANDARD_MOMENTS[m // 2]
            * mu_pow
            * sigma**m
            * (scale_moment(m) if m else 1.0)
        )
    return total


def gaussian_abs_first_moment(sigma: float) -> float:
    """E|X| = sqrt(2/pi) * sigma for a centered Gaussian."""
    check_sigma(sigma)
    return math.sqrt(2.0 / math.pi) * sigma


def q_pochhammer(a: float, q: float, n: int | float) -> float:
    """q-shifted factorial (a; q)_n = prod_{i=0}^{n-1} (1 - a q^i).

    ``n`` is a nonnegative integer, or INFINITY for the limit product. The
    infinite form requires |q| < 1; iteration stops once the factor differs
    from 1 by less than 1e-15, which bounds the dropped tail by roughly
    |a q^i| / (1 - |q|).
    """
    if not (math.isfinite(a) and math.isfinite(q)):
        raise ValueError("a and q must be finite")
    if n == INFINITY:
        if abs(q) >= 1.0:
            raise DivergenceError(
                f"infinite q-product requires |q| < 1, got q={q!r}"
            )
        product = 1.0
        aq = a
        while abs(aq) >= 1e-15:
            product *= 1.0 - aq
            aq *= q
        return product
    check_depth(n)
    product = 1.0
    aq = a
    for _ in range(n):
        product *= 1.0 - aq
        aq *= q
    return product
