"""Density, tail probabilities, moments, and log-log diagnostics for
branch mixtures.

Every quantity is one function over a MixtureDistribution, enumerated or
grouped. Tail quantities are evaluated in log space whenever they can leave
the range of ordinary doubles, so grouped mixtures work for depths far
beyond the enumeration ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_order
from .branching import GaussianBase, MixtureDistribution, group_mixture
from .special import erfc, gaussian_abs_first_moment, log_erfc, scale_mixture_moment

_LN2 = math.log(2.0)
_LN_HALF = -_LN2
_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

_CHUNK = 4096

# Components whose sigma has |ln sigma| above this are left out of the
# density: their sigma leaves the double range and their share is negligible.
_DENSITY_LOG_SIGMA_LIMIT = 700.0


def _floats(arr: np.ndarray):
    """The elements of a 1-d array as Python floats, converted chunk by chunk."""
    for i in range(0, arr.size, _CHUNK):
        yield from arr[i : i + _CHUNK].tolist()


def density(mixture: MixtureDistribution, x) -> float | np.ndarray:
    """Mixture density at x (scalar or array): sum_i w_i phi(mu, sigma_i, x)."""
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.zeros(x_arr.shape)
    keep = np.abs(math.log(mixture.sigma) + mixture.log_scales) <= _DENSITY_LOG_SIGMA_LIMIT
    sigmas = mixture.component_sigmas[keep]
    log_weights = mixture.log_weights[keep]
    for i in range(0, sigmas.size, _CHUNK):
        chunk = sigmas[i : i + _CHUNK]
        z = (x_arr[..., None] - mixture.mu) / chunk
        w = np.exp(log_weights[i : i + _CHUNK])
        out += np.sum(w * np.exp(-0.5 * z * z) / (chunk * _SQRT_TWO_PI), axis=-1)
    out *= mixture.weight
    if x_arr.ndim == 0:
        return float(out)
    return out


def _check_threshold(k: float) -> None:
    if not math.isfinite(k):
        raise ValueError(f"threshold must be finite, got {k!r}")


def _log_component_tail(delta: float, log_sigma: float) -> float:
    # ln P(Normal(0, sigma^2) > delta) with sigma passed as log(sigma); safe
    # for scale factors far outside the double range.
    if delta == 0.0:
        return _LN_HALF
    log_abs_z = math.log(abs(delta)) - 0.5 * _LN2 - log_sigma
    if log_abs_z > 300.0:
        return -math.inf if delta > 0.0 else 0.0
    z = math.copysign(math.exp(log_abs_z), delta)
    return _LN_HALF + log_erfc(z)


def _component_tail(delta: float, sigma: float, log_sigma: float) -> float:
    # P(Normal(0, sigma^2) > delta); the log form covers sigmas that
    # underflowed to 0 or are too small for delta / sigma to stay finite.
    if sigma > 0.0:
        z = delta / (_SQRT2 * sigma)
        if math.isfinite(z):
            return 0.5 * erfc(z)
    return math.exp(_log_component_tail(delta, log_sigma))


def exceedance(mixture: MixtureDistribution, k: float) -> float:
    """P(X > k) as the weighted sum of per-component Gaussian tails.

    Exact summation over all components; may underflow to 0.0 in very deep
    tails, where log_exceedance stays usable.
    """
    _check_threshold(k)
    delta = k - mixture.mu
    log_sigma = math.log(mixture.sigma)
    total = math.fsum(
        math.exp(lw) * _component_tail(delta, s, log_sigma + ls)
        for lw, s, ls in zip(
            _floats(mixture.log_weights),
            _floats(mixture.component_sigmas),
            _floats(mixture.log_scales),
        )
    )
    return min(1.0, mixture.weight * total)


def _logsumexp(terms: np.ndarray) -> float:
    m = float(terms.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in _floats(terms)))


def log_exceedance(mixture: MixtureDistribution, k: float) -> float:
    """ln P(X > k), computed per component in log space."""
    _check_threshold(k)
    delta = k - mixture.mu
    log_sigma = math.log(mixture.sigma)
    terms = np.fromiter(
        (
            lw + _log_component_tail(delta, log_sigma + ls)
            for lw, ls in zip(_floats(mixture.log_weights), _floats(mixture.log_scales))
        ),
        np.float64,
        mixture.n_components,
    )
    return math.log(mixture.weight) + _logsumexp(terms)


def convexity_ratio(mixture: MixtureDistribution, k: float) -> float:
    """Tail inflation P(X > k) / P(X > k | depth 0), against the base Gaussian.

    Evaluated as a difference of log tail probabilities, so ratios of order
    10^18 on probabilities of order 10^-24 keep full relative accuracy.
    """
    base = group_mixture(GaussianBase(mixture.mu, mixture.sigma), 0.0, 0)
    return math.exp(log_exceedance(mixture, k) - log_exceedance(base, k))


def _mean_scale_power(mixture: MixtureDistribution, m: int) -> float:
    # E[scale^m] over the mixture weights. In deep grouped mixtures a tiny
    # weight can meet a power that overflows; such terms are taken in log
    # space instead.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(mixture.log_weights) * mixture.scales**m
        bad = ~np.isfinite(terms)
        terms[bad] = np.exp(mixture.log_weights[bad] + m * mixture.log_scales[bad])
        return mixture.weight * float(np.sum(terms))


def mixture_raw_moment(mixture: MixtureDistribution, order: int) -> float:
    """Raw moment E[X^order] by exact summation over the components.

    Only even powers of the component scales contribute:
    E[X^k] = sum_{m even} C(k, m) E[Z^m] mu^(k-m) sigma^m * E[scale^m].
    """
    check_order(order)
    return scale_mixture_moment(
        order, mixture.mu, mixture.sigma, lambda m: _mean_scale_power(mixture, m)
    )


def mixture_abs_first_moment(mixture: MixtureDistribution) -> float:
    """E|X| for a centered mixture: sqrt(2/pi) sigma * E[scale].

    The mean scale is 1 for every balanced schedule, so this is invariant
    in both the rates and the depth.
    """
    if mixture.mu != 0.0:
        raise ValueError(
            "absolute first moment is only supported for centered mixtures (mu = 0)"
        )
    return gaussian_abs_first_moment(mixture.sigma) * _mean_scale_power(mixture, 1)


@dataclass(frozen=True)
class LogLogSeries:
    """Geometric x grid with ln x and ln P(X > x)."""

    x: np.ndarray
    log_x: np.ndarray
    log_p: np.ndarray

    def __len__(self) -> int:
        return int(self.x.size)


def _loglog_grid(mu: float, x_min: float, x_max: float, points: int) -> np.ndarray:
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ValueError(f"need at least 2 points, got {points!r}")
    if not (x_min > 0.0 and x_min > mu):
        raise ValueError(f"x_min must exceed both 0 and mu, got {x_min!r}")
    if not x_max > x_min:
        raise ValueError(f"x_max must exceed x_min, got {x_max!r}")
    return np.linspace(math.log(x_min), math.log(x_max), points)


def loglog_series(
    mixture: MixtureDistribution, x_min: float, x_max: float, points: int
) -> LogLogSeries:
    """Survival function on a geometric grid, in log-log coordinates."""
    log_x = _loglog_grid(mixture.mu, x_min, x_max, points)
    x = np.exp(log_x)
    log_p = np.array([log_exceedance(mixture, v) for v in x])
    return LogLogSeries(x=x, log_x=log_x, log_p=log_p)


def tail_slope_estimate(series: LogLogSeries, start: int, stop: int) -> float:
    """Least-squares slope of ln P against ln x over [start, stop)."""
    lx = series.log_x[start:stop]
    lp = series.log_p[start:stop]
    if lx.size < 3:
        raise ValueError(f"slope window needs at least 3 points, got {lx.size}")
    if not np.all(np.isfinite(lp)):
        raise ValueError("slope window contains non-finite ln P values")
    dx = lx - lx.mean()
    return float(np.dot(dx, lp - lp.mean()) / np.dot(dx, dx))


def local_slopes(series: LogLogSeries, half_window: int = 2) -> np.ndarray:
    """Per-point least-squares slope over a centered window (clipped at the ends)."""
    n = len(series)
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half_window)
        hi = min(n, i + half_window + 1)
        out[i] = tail_slope_estimate(series, lo, hi)
    return out
