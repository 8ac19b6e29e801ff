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
from itertools import chain

import numpy as np

from ._checks import check_order
from .branching import GaussianBase, MixtureDistribution, group_mixture
from .special import (
    erfc_array,
    gaussian_abs_first_moment,
    log_erfc_array,
    scale_mixture_moment,
)

_LN2 = math.log(2.0)
_LN_HALF = -_LN2
_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_TWO_PI = math.log(_SQRT_TWO_PI)

_CHUNK = 4096

# Density components whose |ln sigma| or -ln weight exceeds this are summed
# in log space: their sigma or weight leaves the double range.
_DENSITY_LINEAR_LIMIT = 700.0


def _slices(n: int):
    """Consecutive slices of at most _CHUNK elements covering range(n)."""
    return (slice(i, i + _CHUNK) for i in range(0, n, _CHUNK))


def _fsum(arrays) -> float:
    """Exact sum of the elements of an iterable of float arrays, in any order."""
    return math.fsum(chain.from_iterable(a.tolist() for a in arrays))


def density(mixture: MixtureDistribution, x) -> float | np.ndarray:
    """Mixture density at x (scalar or array): sum_i w_i phi(mu, sigma_i, x).

    Components whose sigma or weight leaves the double range are summed in
    log space, so none is dropped. A density beyond the double range
    returns inf.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.zeros(x_arr.shape)
    log_sigmas = math.log(mixture.sigma) + mixture.log_scales
    linear = (np.abs(log_sigmas) <= _DENSITY_LINEAR_LIMIT) & (
        mixture.log_weights >= -_DENSITY_LINEAR_LIMIT
    )
    sigmas = mixture.component_sigmas[linear]
    log_weights = mixture.log_weights[linear]
    # Overflow here means z * z past the double range (the term is 0) or a
    # density past it (the result is inf).
    with np.errstate(over="ignore", divide="ignore"):
        for s in _slices(sigmas.size):
            chunk = sigmas[s]
            z = (x_arr[..., None] - mixture.mu) / chunk
            w = np.exp(log_weights[s])
            out += np.sum(w * np.exp(-0.5 * z * z) / (chunk * _SQRT_TWO_PI), axis=-1)
        log_sigmas = log_sigmas[~linear]
        log_weights = mixture.log_weights[~linear]
        log_dx = np.log(np.abs(x_arr - mixture.mu))[..., None]
        for s in _slices(log_sigmas.size):
            ls = log_sigmas[s]
            z2 = np.exp(2.0 * (log_dx - ls))
            out += np.sum(np.exp(log_weights[s] - ls - _LN_SQRT_TWO_PI - 0.5 * z2), axis=-1)
    out *= mixture.weight
    if x_arr.ndim == 0:
        return float(out)
    return out


def _check_threshold(k: float) -> None:
    if not math.isfinite(k):
        raise ValueError(f"threshold must be finite, got {k!r}")


def _log_tails(delta: float, log_sigmas: np.ndarray) -> np.ndarray:
    # ln P(Normal(0, sigma_i^2) > delta) with each sigma passed as its log;
    # safe for scale factors far outside the double range.
    if delta == 0.0:
        return np.full(log_sigmas.shape, _LN_HALF)
    log_abs_z = (math.log(abs(delta)) - 0.5 * _LN2) - log_sigmas
    out = np.full(log_sigmas.shape, -math.inf if delta > 0.0 else 0.0)
    near = log_abs_z <= 300.0
    z = np.copysign(np.exp(log_abs_z[near]), delta)
    out[near] = _LN_HALF + log_erfc_array(z)
    return out


def _tails(delta: float, sigmas: np.ndarray, log_sigmas: np.ndarray) -> np.ndarray:
    # P(Normal(0, sigma_i^2) > delta); the log form covers sigmas that
    # underflowed to 0 or are too small for delta / sigma to stay finite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = delta / (_SQRT2 * sigmas)
    ok = np.isfinite(z)
    out = np.empty(z.shape)
    out[ok] = 0.5 * erfc_array(z[ok])
    out[~ok] = np.exp(_log_tails(delta, log_sigmas[~ok]))
    return out


def exceedance(mixture: MixtureDistribution, k: float) -> float:
    """P(X > k) as the weighted sum of per-component Gaussian tails.

    Exact summation over all components; may underflow to 0.0 in very deep
    tails, where log_exceedance stays usable.
    """
    _check_threshold(k)
    delta = k - mixture.mu
    log_sigma = math.log(mixture.sigma)
    total = _fsum(
        np.exp(mixture.log_weights[s])
        * _tails(delta, mixture.sigma * mixture.scales[s], log_sigma + mixture.log_scales[s])
        for s in _slices(mixture.n_components)
    )
    return min(1.0, mixture.weight * total)


def _logsumexp(terms: np.ndarray) -> float:
    m = float(terms.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(_fsum(np.exp(terms[s] - m) for s in _slices(terms.size)))


def log_exceedance(mixture: MixtureDistribution, k: float) -> float:
    """ln P(X > k), computed per component in log space, a chunk at a time."""
    _check_threshold(k)
    delta = k - mixture.mu
    log_sigma = math.log(mixture.sigma)
    terms = np.empty(mixture.n_components)
    for s in _slices(terms.size):
        terms[s] = mixture.log_weights[s] + _log_tails(delta, log_sigma + mixture.log_scales[s])
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
