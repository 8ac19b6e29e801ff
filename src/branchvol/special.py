"""Special functions used throughout the package.

Provides the complementary error function (the stdlib ``math.erfc`` with an
exact reflection for negative arguments) and its logarithm for deep-tail
work (``ln erfc`` up to a switch point, a fixed-length continued fraction
beyond it), each over a float or an array, the raw moments of a Gaussian
scale mixture up to order 8 from the moments of its scale, the Gaussian
absolute first moment, and the INFINITY depth marker of a limit.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import UnsupportedOrderError  # noqa: F401  (public home of the error)
from ._checks import check_sigma, power

INFINITY = math.inf
"""Depth marker for infinite products and moment limits."""

_LN_SQRT_PI = 0.5 * math.log(math.pi)

# log_erfc takes ln(erfc(z)) below this point and the continued fraction at
# and above it, where erfc(z) < 1e-273 heads for underflow near z = 26.6.
_LOG_ERFC_SWITCH = 25.0
# Continued-fraction depth. Truncating after k terms leaves a relative error
# of about k! / (2 z^2)^k: below 1e-24 for 10 terms at the switch point.
_CF_TERMS = 10


def _erfc_cf(z):
    # F(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + 2/(z + ...))))), so that
    # erfc(z) = exp(-z^2)/sqrt(pi) * F(z); evaluated bottom-up over a fixed
    # number of terms, for an array of z >= _LOG_ERFC_SWITCH.
    t = z
    for k in range(_CF_TERMS, 0, -1):
        t = z + 0.5 * k / t
    return 1.0 / t


def _finite_1d(z, name: str) -> tuple[np.ndarray, float, float]:
    # z as a 1-d float array with its least and greatest elements (0.0 for
    # an empty one), taken once per call; a nan or an inf raises.
    x = np.atleast_1d(np.asarray(z, dtype=np.float64))
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if not (-math.inf < lo and hi < math.inf):
        bad = float(x[~np.isfinite(x)][0])
        raise ValueError(f"{name} requires a finite argument, got {bad!r}")
    return x, lo, hi


def _erfc_1d(z: np.ndarray, lo: float) -> np.ndarray:
    # math.erfc of each element; the reflection only when some element is
    # negative (lo, a lower bound on them, is below 0). erfc(-0.0) = erfc(0.0).
    if lo >= 0.0:
        return np.fromiter(map(math.erfc, z.tolist()), np.float64, z.size)
    e = np.fromiter(map(math.erfc, np.abs(z).tolist()), np.float64, z.size)
    return np.where(z < 0.0, 2.0 - e, e)


def erfc(z):
    """Complementary error function 1 - erf(z) of a float or a 1-d array.

    The stdlib math.erfc; negative arguments use the exact reflection
    erfc(-z) = 2 - erfc(z). Underflows to 0.0 for z beyond ~26.6. Returns a
    float for a float and an array for an array; raises ValueError on a
    non-finite argument.
    """
    x, lo, _ = _finite_1d(z, "erfc")
    out = _erfc_1d(x, lo)
    return float(out[0]) if np.ndim(z) == 0 else out


def log_erfc(z):
    """Natural logarithm of erfc(z), stable arbitrarily far into the tail.

    At and above the switch point this evaluates -z^2 - log(sqrt(pi)) +
    log(F(z)) with the continued fraction F, so it keeps full relative
    accuracy long after erfc itself underflows. Takes and returns a float
    or a 1-d array, as erfc does.
    """
    x, lo, hi = _finite_1d(z, "log_erfc")
    if hi < _LOG_ERFC_SWITCH:
        out = np.log(_erfc_1d(x, lo))
    else:
        far = x >= _LOG_ERFC_SWITCH
        out = np.empty(x.shape)
        out[~far] = np.log(_erfc_1d(x[~far], lo))
        zf = x[far]
        out[far] = -zf * zf - _LN_SQRT_PI + np.log(_erfc_cf(zf))
    return float(out[0]) if np.ndim(z) == 0 else out


# E[Z^(2j)] = (2j-1)!! for a standard normal, j = 0..4.
_EVEN_STANDARD_MOMENTS = (1.0, 1.0, 3.0, 15.0, 105.0)


def scale_mixture_moment(order: int, mu: float, sigma: float, scale_moment) -> float:
    """Raw moment E[X^order] of X = mu + sigma S Z, Z standard normal independent of S.

    E[X^k] = sum_{m even} C(k, m) (m-1)!! mu^(k-m) sigma^m E[S^m], where
    scale_moment(m) gives E[S^m] for even m >= 2.
    """
    total = 0.0
    for m in range(0, order + 1, 2):
        mu_pow = power(mu, order - m, "mu")
        if mu_pow == 0.0:  # skipped, so an infinite E[S^m] cannot turn 0 into nan
            continue
        total += (
            math.comb(order, m)
            * _EVEN_STANDARD_MOMENTS[m // 2]
            * mu_pow
            * power(sigma, m, "sigma")
            * (scale_moment(m) if m else 1.0)
        )
    return total


def gaussian_abs_first_moment(sigma: float) -> float:
    """E|X| = sqrt(2/pi) * sigma for a centered Gaussian."""
    check_sigma(sigma)
    return math.sqrt(2.0 / math.pi) * sigma
