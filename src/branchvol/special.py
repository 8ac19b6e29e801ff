"""Scalar special functions used throughout the package.

Provides a self-contained complementary error function (Maclaurin series
below the crossover, Lentz continued fraction above), its logarithm for
deep-tail work, exact Gaussian raw moments up to order 8, the Gaussian
absolute first moment, and the q-Pochhammer product with support for the
infinite-depth limit.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from ._checks import UnsupportedOrderError  # noqa: F401  (public home of the error)
from ._checks import check_depth, check_order, check_sigma

INFINITY = math.inf
"""Depth marker for infinite products and moment limits."""

_SQRT_PI = math.sqrt(math.pi)
_LN_SQRT_PI = 0.5 * math.log(math.pi)

# Series/continued-fraction switch point. The series keeps the relative
# error of erfc below ~5e-14 up to here; the continued fraction converges
# in well under 100 terms beyond it.
_ERFC_CROSSOVER = 2.0
_CF_MAX_ITER = 400


class DivergenceError(ValueError):
    """Infinite product cannot converge for the given ratio."""


def _erf_series(z: float) -> float:
    # Maclaurin series erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n! (2n+1)),
    # adequate for |z| <= _ERFC_CROSSOVER.
    z2 = z * z
    term = z
    total = z
    n = 0
    while abs(term) > 1e-18 * abs(total):
        n += 1
        term *= -z2 * (2 * n - 1) / (n * (2 * n + 1))
        total += term
    return (2.0 / _SQRT_PI) * total


def _erfc_cf(z: float) -> float:
    # Modified Lentz evaluation of
    #   F(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + 2/(z + ...)))))
    # so that erfc(z) = exp(-z^2)/sqrt(pi) * F(z). Valid for z >= ~1.
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for k in range(1, _CF_MAX_ITER + 1):
        a = 1.0 if k == 1 else (k - 1) / 2.0
        d = z + a * d
        if d == 0.0:
            d = tiny
        c = z + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return f


def erfc(z: float) -> float:
    """Complementary error function 1 - erf(z).

    Relative error is below 1e-12 on [0, 10] (checked against a 50-digit
    oracle in the test suite). Negative arguments use the exact reflection
    erfc(-z) = 2 - erfc(z). Underflows to 0.0 for z beyond ~26.6.
    """
    if not math.isfinite(z):
        raise ValueError(f"erfc requires a finite argument, got {z!r}")
    if z < 0.0:
        return 2.0 - erfc(-z)
    if z < _ERFC_CROSSOVER:
        return 1.0 - _erf_series(z)
    return math.exp(-z * z) / _SQRT_PI * _erfc_cf(z)


def log_erfc(z: float) -> float:
    """Natural logarithm of erfc(z), stable arbitrarily far into the tail.

    For z >= the series/fraction crossover this evaluates
    -z^2 - log(sqrt(pi)) + log(F(z)) directly, so it keeps full relative
    accuracy long after erfc itself underflows.
    """
    if not math.isfinite(z):
        raise ValueError(f"log_erfc requires a finite argument, got {z!r}")
    if z < _ERFC_CROSSOVER:
        return math.log(erfc(z))
    return -z * z - _LN_SQRT_PI + math.log(_erfc_cf(z))


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
