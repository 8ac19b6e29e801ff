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
from .special import erfc, gaussian_abs_first_moment, log_erfc, scale_mixture_moment

_LN2 = math.log(2.0)
_LN_HALF = -_LN2
_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_TWO_PI = math.log(_SQRT_TWO_PI)

_CHUNK = 4096
# Density grid points per block: temporaries stay (256 x _CHUNK) doubles.
_GRID_BLOCK = 256

# Density components whose |ln sigma| or -ln weight exceeds this are summed
# in log space: their sigma or weight leaves the double range.
_DENSITY_LINEAR_LIMIT = 700.0

# exp(d) is exactly 0.0 below d = -745.13. Log-tail terms that provably lie
# this far below another term add nothing to the sum and are skipped; the
# margin covers rounding in the bounds while terms stay above _PRUNE_FLOOR.
_PRUNE_GAP = 750.0
_PRUNE_FLOOR = -1e15
_EXP_ZERO = -746.0


# Largest piece _pairwise_sum hands to its leaf: 2^14 doubles stay in cache.
_LEAF = 2**14


def _pairwise_sum(leaf, lo: int, hi: int):
    """Sum of leaf(i, j) over pieces of range(lo, hi), in np.sum's order.

    numpy's pairwise sum halves a block, the left half rounded down to a
    multiple of 8, until a piece is small. Splitting the same way down to
    _LEAF elements and adding on the way back up gives np.sum's bits when
    each leaf returns np.sum of its piece; a leaf may return an array of
    such sums. Module-level, so the recursion holds no reference cycle.
    """
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(leaf, lo, lo + half) + _pairwise_sum(leaf, lo + half, hi)


def _slices(n: int, size: int = _CHUNK):
    """Consecutive slices of at most size elements covering range(n)."""
    return (slice(i, i + size) for i in range(0, n, size))


# Sums of at most this many elements go to math.fsum, which is faster on
# most of them (measured on the benchmark's own sums; the bucket sum has a
# fixed cost of about 50 us).
_FSUM_MAX = 1024
# Elements per bucket-sum batch: the temporaries stay in cache, and every
# bucket holds far fewer than the 2^26 elements below which its float64 sum
# is exact.
_BATCH = 2**14
# Batches holding an element this large, an inf or a nan go to math.fsum:
# fewer than 2^63 smaller elements cannot sum past the double range.
_BIG = 2.0**960
# frexp exponents run from -1073 (the smallest subnormal) to 1024. Bucket
# b = e + 1073 holds elements m * 2^(b - _SHIFT), m the 53-bit integer
# mantissa, so the sum is sum(bucket sums * 2^b) / 2^_SHIFT.
_EXP_BIAS = 1073
_SHIFT = _EXP_BIAS + 53
_BUCKETS = 2098
# Room for the high mantissa halves (26 buckets up) and one 32-bit carry,
# rounded up to whole 8-bucket limbs.
_LIMBS = (_BUCKETS + 26 + 32 + 7) // 8
_LIMB_WEIGHTS = 1 << np.arange(8, dtype=np.int64)


def _batches(arrays):
    """The elements of arrays, in order, in arrays of _BATCH elements (the
    last may be shorter)."""
    pending, size = [], 0
    for a in arrays:
        pending.append(a)
        size += a.size
        if size >= _BATCH:
            x = np.concatenate(pending) if len(pending) > 1 else a
            full = size - size % _BATCH
            yield from (x[s] for s in _slices(full, _BATCH))
            pending, size = [x[full:]], size - full
    if size:
        yield np.concatenate(pending)


def _add_buckets(acc: np.ndarray, x: np.ndarray) -> None:
    # Split each mantissa m into m = 2^26 hi + lo with 0 <= lo < 2^26 and
    # sum each half per exponent: integers of at most 2^41, so exact.
    f, e = np.frexp(x)
    e += _EXP_BIAS
    f *= 2.0**27
    hi = np.floor(f)
    f -= hi
    f *= 2.0**26
    acc[:_BUCKETS] += np.bincount(e, f, _BUCKETS).astype(np.int64)
    acc[26 : _BUCKETS + 26] += np.bincount(e, hi, _BUCKETS).astype(np.int64)


def _bucket_total(acc: np.ndarray) -> int:
    # sum(acc[b] * 2^b) as a Python int. One carry leaves every bucket
    # below 2^33 in magnitude, so the fold of 8 buckets into one int64 limb
    # cannot overflow however many elements were summed; the limbs' 8 byte
    # planes each read as one little-endian int. A negative limb's bytes
    # read as limb + 2^64, which the last line takes back.
    carry = acc >> 32
    acc &= 0xFFFFFFFF
    acc[32:] += carry[:-32]
    limbs = (acc.reshape(-1, 8) @ _LIMB_WEIGHTS).astype("<i8")
    planes = limbs.view(np.uint8).reshape(-1, 8).T.tobytes()
    total = sum(
        int.from_bytes(planes[k * _LIMBS : (k + 1) * _LIMBS], "little") << 8 * k
        for k in range(8)
    )
    return total - (int.from_bytes((limbs < 0).tobytes(), "little") << 64)


def _expansion(total: int) -> list[float]:
    # Doubles whose exact sum is total / 2^_SHIFT, largest first.
    parts = []
    while total:
        parts.append(total / (1 << _SHIFT))
        num, den = parts[-1].as_integer_ratio()
        total -= num << (_SHIFT - den.bit_length() + 1)
    return parts


def _fsum(arrays) -> float:
    """math.fsum of the elements of an iterable of float arrays, bit for bit.

    Past _FSUM_MAX elements the sum is exact in exponent buckets (Neal's
    superaccumulator, arXiv:1505.05571): numpy sums the integer mantissa
    halves per exponent, Python ints combine the buckets, and one int/int
    division rounds once, correctly, as math.fsum does. A batch holding an
    inf, a nan or an element of 2^960 or more hands the rest to math.fsum,
    with the batches before it entering as their exact sum.
    """
    batches = _batches(arrays)
    first = next(batches, np.empty(0))
    if first.size <= _FSUM_MAX:
        return math.fsum(first.tolist())
    acc = np.zeros(8 * _LIMBS, dtype=np.int64)
    for x in chain([first], batches):
        if not (-_BIG < x.min() and x.max() < _BIG):
            rest = chain.from_iterable(b.tolist() for b in chain([x], batches))
            return math.fsum(chain(_expansion(_bucket_total(acc)), rest))
        _add_buckets(acc, x)
    return _bucket_total(acc) / (1 << _SHIFT)


def density(mixture: MixtureDistribution, x) -> float | np.ndarray:
    """Mixture density at x (scalar or array): sum_i w_i phi(mu, sigma_i, x).

    Components whose sigma or weight leaves the double range are summed in
    log space, so none is dropped. A density beyond the double range
    returns inf.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    log_sigmas = math.log(mixture.sigma) + mixture.log_scales
    linear = np.abs(log_sigmas) <= _DENSITY_LINEAR_LIMIT
    weighted = not mixture.zero_log_weights
    if weighted:
        linear &= mixture.log_weights >= -_DENSITY_LINEAR_LIMIT
    sigmas = mixture.sigma * mixture.scales[linear]
    log_weights = mixture.log_weights[linear] if weighted else None
    far_log_sigmas = log_sigmas[~linear]
    far_log_weights = mixture.log_weights[~linear]
    x_col = x_arr.reshape(-1, 1)
    out = np.zeros(x_arr.size)
    # Grid points go a block at a time; each keeps its own sum, in the same
    # order whatever the block size. Overflow here means z * z past the
    # double range (the term is 0) or a density past it (the result is inf).
    with np.errstate(over="ignore", divide="ignore"):
        for g in _slices(out.size, _GRID_BLOCK):
            xb, ob = x_col[g], out[g]
            for s in _slices(sigmas.size):
                chunk = sigmas[s]
                z = (xb - mixture.mu) / chunk
                terms = np.exp(-0.5 * z * z)
                if weighted:
                    terms *= np.exp(log_weights[s])
                ob += np.sum(terms / (chunk * _SQRT_TWO_PI), axis=-1)
            log_dx = np.log(np.abs(xb - mixture.mu))
            for s in _slices(far_log_sigmas.size):
                ls = far_log_sigmas[s]
                z2 = np.exp(2.0 * (log_dx - ls))
                terms = np.exp(far_log_weights[s] - ls - _LN_SQRT_TWO_PI - 0.5 * z2)
                ob += np.sum(terms, axis=-1)
    out *= mixture.weight
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


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
    out[near] = _LN_HALF + log_erfc(z)
    return out


def _tails(delta: float, sigmas: np.ndarray, log_sigmas: np.ndarray) -> np.ndarray:
    # P(Normal(0, sigma_i^2) > delta); the log form covers sigmas that
    # underflowed to 0 or are too small for delta / sigma to stay finite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = delta / (_SQRT2 * sigmas)
    ok = np.isfinite(z)
    out = np.empty(z.shape)
    out[ok] = 0.5 * erfc(z[ok])
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
    with np.errstate(over="ignore"):  # a sigma past the double range has tail 1/2
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
    # Differences below _EXP_ZERO exponentiate to 0.0, which adds nothing.
    diffs = (terms[s] - m for s in _slices(terms.size))
    return m + math.log(_fsum(np.exp(d[d >= _EXP_ZERO]) for d in diffs))


def _log_tail_bounds(delta: float, log_weights: np.ndarray, log_sigmas: np.ndarray) -> np.ndarray:
    # Upper bounds on log_weights + _log_tails(delta, log_sigmas): a tail is
    # at most 1, and 1/2 erfc(z) <= 1/2 exp(-z^2) for z >= 0.
    if delta <= 0.0:
        return log_weights
    log_abs_z = (math.log(delta) - 0.5 * _LN2) - log_sigmas
    with np.errstate(over="ignore"):
        return log_weights + _LN_HALF - np.exp(2.0 * log_abs_z)


def log_exceedance(mixture: MixtureDistribution, k: float) -> float:
    """ln P(X > k), computed per component in log space, a chunk at a time.

    Past one chunk, a component is skipped when its bound lies _PRUNE_GAP
    below the exact term of the component with the largest bound: its
    exp(term - max) would be exactly 0.0, so the result keeps every bit.
    """
    _check_threshold(k)
    delta = k - mixture.mu
    log_sigma = math.log(mixture.sigma)
    lw, ls = mixture.log_weights, mixture.log_scales
    terms = np.empty(mixture.n_components)
    floor = -math.inf
    if terms.size > _CHUNK:
        # terms holds the bounds until the exact terms overwrite them
        for s in _slices(terms.size):
            terms[s] = _log_tail_bounds(delta, lw[s], log_sigma + ls[s])
        j = int(np.argmax(terms))
        anchor = lw[j] + float(_log_tails(delta, np.array([log_sigma + ls[j]]))[0])
        if math.isfinite(anchor) and anchor >= _PRUNE_FLOOR:
            floor = anchor - _PRUNE_GAP
    for s in _slices(terms.size):
        if floor == -math.inf or terms[s].min() >= floor:
            terms[s] = lw[s] + _log_tails(delta, log_sigma + ls[s])
            continue
        keep = terms[s] >= floor
        terms[s] = -math.inf
        if keep.any():
            terms[s][keep] = lw[s][keep] + _log_tails(delta, log_sigma + ls[s][keep])
    return math.log(mixture.weight) + _logsumexp(terms)


def convexity_ratio(mixture: MixtureDistribution, k: float) -> float:
    """Tail inflation P(X > k) / P(X > k | depth 0), against the base Gaussian.

    Evaluated as a difference of log tail probabilities, so ratios of order
    10^18 on probabilities of order 10^-24 keep full relative accuracy.
    """
    base = group_mixture(GaussianBase(mixture.mu, mixture.sigma), 0.0, 0)
    return math.exp(log_exceedance(mixture, k) - log_exceedance(base, k))


def _mean_scale_power(mixture: MixtureDistribution, m: int) -> float:
    # E[scale^m] over the mixture weights, a leaf at a time in np.sum's
    # order. In deep grouped mixtures a tiny weight can meet a power that
    # overflows; a leaf whose sum is not finite takes such terms in log
    # space and sums again. Terms are never negative, so a finite leaf sum
    # means every term of the leaf was finite.
    scales, lw, ls = mixture.scales, mixture.log_weights, mixture.log_scales
    weighted = not mixture.zero_log_weights
    terms = np.empty(min(_LEAF, scales.size))
    weights = np.empty(terms.size if weighted else 0)

    def leaf(i: int, j: int) -> float:
        t = terms[: j - i]
        np.power(scales[i:j], m, out=t)
        if weighted:
            t *= np.exp(lw[i:j], out=weights[: j - i])
        total = float(np.sum(t))
        if not math.isfinite(total):
            bad = ~np.isfinite(t)
            t[bad] = np.exp(lw[i:j][bad] + m * ls[i:j][bad])
            total = float(np.sum(t))
        return total

    with np.errstate(over="ignore", invalid="ignore"):
        return mixture.weight * _pairwise_sum(leaf, 0, scales.size)


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
    if not (math.isfinite(x_max) and x_max > x_min):
        raise ValueError(f"x_max must be finite and exceed x_min, got {x_max!r}")
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


def local_slopes(series: LogLogSeries) -> np.ndarray:
    """Per-point least-squares slope over a centered 5-point window (clipped at the ends)."""
    n = len(series)
    out = np.empty(n)
    for i in range(n):
        out[i] = tail_slope_estimate(series, max(0, i - 2), min(n, i + 3))
    return out
