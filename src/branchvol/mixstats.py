"""Density, tail probabilities, moments, and log-log diagnostics for
branch mixtures.

Every quantity is one function over a MixtureDistribution, enumerated or
grouped. Tail quantities are evaluated in log space whenever they can leave
the range of ordinary doubles, so grouped mixtures work for depths far
beyond the enumeration ceiling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._checks import LN_MAX, check_order
from .branching import (
    _SCALE_BLOCK,
    MAX_ENUMERATION_DEPTH,
    BinomialClasses,
    EnumerationLimitError,
    GaussianBase,
    MixtureDistribution,
    group_mixture,
)
from .special import erfc, gaussian_abs_first_moment, log_erfc, scale_mixture_moment

_LN2 = math.log(2.0)
_LN_HALF = -_LN2
_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_TWO_OVER_PI = 0.5 * math.log(2.0 / math.pi)
_LN_SQRT_TWO_PI = math.log(_SQRT_TWO_PI)

_CHUNK = 4096
# Density grid points per block: temporaries stay (256 x _CHUNK) doubles.
_GRID_BLOCK = 256

# Density components whose |ln sigma| or -ln weight exceeds this are summed
# in log space: their sigma or weight leaves the double range. A chunk whose
# sigmas lie a nat inside it takes no logs. A -inf log-sigma (a 0 scale) is
# taken as the floor: a term of 0 off the centre and inf at it, no inf - inf.
_DENSITY_LINEAR_LIMIT = 700.0
_SIGMA_MIN, _SIGMA_MAX = math.exp(-699.0), math.exp(699.0)
_LOG_SIGMA_FLOOR = -1e300

# Past this many components, log_exceedance bounds every term first and
# skips the terms that provably cannot move the rounded sum; at or below it,
# every threshold and component goes through one table pass.
_CUT = 256
# Terms whose bound lies this many nats below the anchor term are skipped.
_GAP = 60.0
# Past this |anchor| an ulp of a term reaches 0.125, and rounding in the
# bounds could outgrow the e^1 margin of the slack: nothing is skipped.
_PRUNE_LIMIT = 1e15
# exp(d) is exactly 0.0 below d = -745.13.
_EXP_ZERO = -746.0


# Largest piece _pairwise_sum hands to its leaf: 2^14 doubles stay in cache.
# It is the block of MixtureDistribution.runs, so the leaves of 2^N scales
# are exactly an enumeration's blocks.
_LEAF = _SCALE_BLOCK


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


def _bucket_sum(batches) -> tuple[int, np.ndarray | None]:
    # The exact sum of the batches times 2^_SHIFT, up to the first batch
    # holding an inf, a nan or an element of 2^960 or more; that batch too,
    # or None when there was none.
    acc = np.zeros(8 * _LIMBS, dtype=np.int64)
    for x in batches:
        if not (-_BIG < x.min() and x.max() < _BIG):
            return _bucket_total(acc), x
        _add_buckets(acc, x)
    return _bucket_total(acc), None


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
    total, bad = _bucket_sum(chain([first], batches))
    if bad is None:
        return total / (1 << _SHIFT)
    rest = chain.from_iterable(b.tolist() for b in chain([bad], batches))
    return math.fsum(chain(_expansion(total), rest))


def _fsum_pair(arrays, slack: float) -> tuple[float, float] | None:
    """(math.fsum(xs), math.fsum(xs + [slack])) for the elements xs of an
    iterable of float arrays, from one exact sum; None ("not proven") when
    slack or an element is an inf, a nan or of 2^960 or more in magnitude."""
    if not -_BIG < slack < _BIG:
        return None
    batches = _batches(arrays)
    first = next(batches, np.empty(0))
    if first.size <= _FSUM_MAX:
        if first.size and not (-_BIG < first.min() and first.max() < _BIG):
            return None
        xs = first.tolist()
        r = math.fsum(xs)
        xs.append(slack)
        return r, math.fsum(xs)
    total, bad = _bucket_sum(chain([first], batches))
    if bad is not None:
        return None
    num, den = slack.as_integer_ratio()  # den is at most 2^1074, so this is exact
    return total / (1 << _SHIFT), (total + (num << _SHIFT) // den) / (1 << _SHIFT)


def density(mixture: MixtureDistribution, x) -> float | np.ndarray:
    """Mixture density at x (scalar or array): sum_i w_i phi(mu, sigma_i, x).

    Components whose sigma or weight leaves the double range are summed in
    log space, so none is dropped. A density beyond the double range
    returns inf.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    weighted = not mixture.zero_log_weights
    out = np.zeros(x_arr.size)
    grid = list(_slices(out.size, _GRID_BLOCK))
    # Two tables of (grid block x chunk) doubles, reused: a new process
    # maps and faults in fresh multi-megabyte temporaries on every chunk.
    tables = np.empty((2, min(out.size, _GRID_BLOCK) * min(mixture.n_components, _CHUNK)))
    chunks = ((scales[s], None if ls is None else ls[s], lw[s])
              for _, scales, ls, lw in mixture.runs() for s in _slices(scales.size))
    # Each chunk goes over the grid a block at a time, its linear terms
    # and then its far ones; every point keeps its own sum, adding them in
    # order whatever the block size. Overflow here means z * z past the
    # double range (the term is 0) or a density past it (the result is inf).
    with np.errstate(over="ignore", divide="ignore"):
        dx = x_arr.reshape(-1, 1) - mixture.mu
        log_dx = np.log(np.abs(dx))
        for chunk, ls, lw in chunks:
            sigmas = mixture.sigma * chunk
            far_ls = np.empty(0)
            if not ((not weighted or lw.min() >= -_DENSITY_LINEAR_LIMIT)
                    and _SIGMA_MIN <= sigmas.min() and sigmas.max() <= _SIGMA_MAX):
                log_sigmas = math.log(mixture.sigma) + _logs(chunk, ls)
                linear = np.abs(log_sigmas) <= _DENSITY_LINEAR_LIMIT
                linear &= lw >= -_DENSITY_LINEAR_LIMIT
                far_ls = np.maximum(log_sigmas[~linear], _LOG_SIGMA_FLOOR)
                far_base = lw[~linear] - far_ls - _LN_SQRT_TWO_PI
                sigmas, lw = sigmas[linear], lw[linear]
            norms = sigmas * _SQRT_TWO_PI
            weights = np.exp(lw) if weighted else None
            for g in grid:
                z, terms = (t[: dx[g].size * sigmas.size].reshape(dx[g].size, -1)
                            for t in tables)
                np.divide(dx[g], sigmas, out=z)
                np.multiply(-0.5, z, out=terms)
                terms *= z
                np.exp(terms, out=terms)
                if weighted:
                    terms *= weights
                terms /= norms
                out[g] += np.sum(terms, axis=-1)
                if far_ls.size:  # exp(ln w - ln sigma - ln sqrt(2 pi) - z^2 / 2)
                    terms = tables[0, : dx[g].size * far_ls.size].reshape(dx[g].size, -1)
                    np.subtract(log_dx[g], far_ls, out=terms)
                    terms *= 2.0
                    np.exp(terms, out=terms)
                    terms *= -0.5
                    terms += far_base
                    np.exp(terms, out=terms)
                    out[g] += np.sum(terms, axis=-1)
    out *= mixture.weight
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def _deltas(mixture: MixtureDistribution, k) -> np.ndarray:
    # k - mu for a float or a 1-d array of finite thresholds, as a 1-d
    # array. A distance past the double range is inf, whose tail is 0 or 1.
    ks = np.asarray(k, dtype=np.float64)
    if ks.ndim > 1:
        raise ValueError(f"thresholds must be a float or a 1-d array, got shape {ks.shape}")
    ks = ks.reshape(-1)
    bad = ks[~np.isfinite(ks)]
    if bad.size:
        raise ValueError(f"threshold must be finite, got {float(bad[0])!r}")
    with np.errstate(over="ignore"):
        return ks - mixture.mu


def _like(k, values: list[float]) -> float | np.ndarray:
    # A float for a float threshold, an array for an array.
    return values[0] if np.ndim(k) == 0 else np.array(values)


def _log_tails(delta, log_sigmas: np.ndarray) -> np.ndarray:
    # ln P(Normal(0, sigma_j^2) > delta) with each sigma passed as its log;
    # safe for scale factors far outside the double range. delta is a float,
    # or a (t, 1) column that makes a (t, n) table; math.log takes each
    # ln|delta|. At delta = 0 the tail is 1/2, for a sigma of 0 (nan ln|z|) too.
    # log_erfc is exact while z^2 stays in the double range, ln|z| <= LN_MAX / 2;
    # past it ln P is below -max double, so -inf (or 0 for delta < 0).
    d = np.asarray(delta, dtype=np.float64)
    ds = d.ravel().tolist()
    ln_d = np.reshape([math.log(abs(x)) if x else -math.inf for x in ds], d.shape)
    with np.errstate(invalid="ignore"):
        log_abs_z = (ln_d - 0.5 * _LN2) - log_sigmas
    out = np.empty(log_abs_z.shape)
    out[...] = np.reshape([(-math.inf if x > 0 else 0.0) if x else _LN_HALF for x in ds], d.shape)
    near = log_abs_z <= 0.5 * LN_MAX
    sign = np.broadcast_to(d, out.shape)[near] if d.ndim else d
    out[near] = _LN_HALF + log_erfc(np.copysign(np.exp(log_abs_z[near]), sign))
    return out


def _logs(scales: np.ndarray, log_scales: np.ndarray | None, mask=...) -> np.ndarray:
    # ln scales[mask] of a run: its log-scales if any, else np.log (-inf for a 0).
    if log_scales is not None:
        return log_scales[mask]
    with np.errstate(divide="ignore"):
        return np.log(scales[mask])


def _every_log_scale(mixture: MixtureDistribution) -> np.ndarray:
    # Every log-scale in one array formed for the call: the mixture's, or its runs'.
    out = mixture.part("log_scales")
    if out is None:
        out = np.empty(mixture.n_components)
        for i, scales, _, _ in mixture.runs():
            out[i : i + scales.size] = _logs(scales, None)
    return out


def _tails(delta: float, sigma: float, scales: np.ndarray, log_scales) -> np.ndarray:
    # P(Normal(0, (sigma scale_j)^2) > delta) over the scales of a run; the
    # log form covers sigmas that underflowed to 0 or make delta/sigma inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = delta / (_SQRT2 * (sigma * scales))
    ok = np.isfinite(z)
    out = np.empty(z.shape)
    out[ok] = 0.5 * erfc(z[ok])
    bad = ~ok
    out[bad] = np.exp(_log_tails(delta, math.log(sigma) + _logs(scales, log_scales, bad)))
    return out


def exceedance(mixture: MixtureDistribution, k: float) -> float:
    """P(X > k) as the weighted sum of per-component Gaussian tails.

    Exact summation over all components; may underflow to 0.0 in very deep
    tails, where log_exceedance stays usable.
    """
    (delta,) = _deltas(mixture, k).tolist()
    with np.errstate(over="ignore"):  # a sigma past the double range has tail 1/2
        total = _fsum(np.exp(lw) * _tails(delta, mixture.sigma, scales, ls)
                      for _, scales, ls, lw in mixture.runs())
    return min(1.0, mixture.weight * total)


def _exp_diffs(terms: np.ndarray, m: float, keep: np.ndarray | None = None):
    # exp(t - m) over the terms (those where keep), a chunk at a time.
    # Differences below _EXP_ZERO exponentiate to 0.0, which adds nothing.
    for s in _slices(terms.size):
        d = (terms[s] if keep is None else terms[s][keep[s]]) - m
        yield np.exp(d[d >= _EXP_ZERO])


def _logsumexp(terms: np.ndarray) -> float:
    m = float(terms.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(_fsum(_exp_diffs(terms, m)))


def _row_logsumexp(terms: np.ndarray) -> list[float]:
    # _logsumexp of each row of a (t, n) table, n <= _CUT.
    m = terms.max(axis=1)
    e = np.exp(terms - np.where(m > -math.inf, m, 0.0)[:, None])
    return [mi + math.log(math.fsum(row)) if mi > -math.inf else -math.inf
            for mi, row in zip(m.tolist(), e.tolist())]


def _log_tail_bounds(delta: float, log_weights: np.ndarray, log_sigmas: np.ndarray) -> np.ndarray:
    # Upper bounds on log_weights + _log_tails(delta, log_sigmas): a tail is
    # at most 1, and 1/2 erfc(z) <= 1/2 exp(-z^2) for z >= 0.
    if delta <= 0.0:
        return log_weights
    log_abs_z = (math.log(delta) - 0.5 * _LN2) - log_sigmas
    with np.errstate(over="ignore"):
        return log_weights + _LN_HALF - np.exp(2.0 * log_abs_z)


def _below_bound(delta: float, bound: float, log_sigma: float) -> float:
    # A lower bound on the term ln w + ln P whose _log_tail_bounds bound is
    # given, within ln 2 of the term. P >= 1/2 when delta <= 0. Otherwise
    # erfc(z) > 2/sqrt(pi) exp(-z^2) / (z + sqrt(z^2 + 2)) (Abramowitz and
    # Stegun 7.1.13), where z + sqrt(z^2 + 2) = sqrt(2) exp(asinh(z/sqrt(2))).
    # A finite bound has z^2 in the double range, so exp(ln z) is finite.
    if delta <= 0.0 or bound == -math.inf:
        return bound + _LN_HALF
    z = math.exp((math.log(delta) - 0.5 * _LN2) - log_sigma)
    return bound + _LN_SQRT_TWO_OVER_PI - math.asinh(z / _SQRT2)


def _bounds(delta: float, log_sigma: float, lw: np.ndarray, ls: np.ndarray) -> np.ndarray:
    # _log_tail_bounds of the components of log-weights lw and log-scales
    # ls, a chunk at a time.
    out = np.empty(lw.size)
    for s in _slices(lw.size):
        out[s] = _log_tail_bounds(delta, lw[s], log_sigma + ls[s])
    return out


def _floor(delta: float, log_sigma: float, ls: np.ndarray, bounds: np.ndarray) -> float:
    # _GAP below the anchor, a lower bound on the term with the largest
    # bound (the first among ties); -inf, skipping nothing, past _PRUNE_LIMIT.
    j = int(np.argmax(bounds))
    anchor = _below_bound(delta, float(bounds[j]), log_sigma + float(ls[j]))
    return anchor - _GAP if abs(anchor) <= _PRUNE_LIMIT else -math.inf


def _pruned_logsumexp(delta: float, log_sigma: float, lw: np.ndarray, ls: np.ndarray,
                      terms: np.ndarray, floor: float, n: int) -> float | None:
    # _logsumexp of the n terms ln w_i + ln P_i, skipping those whose bound
    # lies below floor when the rounded sum provably ignores them. lw, ls
    # and terms (their bounds, overwritten by the exact terms) cover a run
    # of the components that holds every one whose bound reaches floor; the
    # rest count as skipped. None when the proof fails on a run short of n.

    def evaluate(mask: np.ndarray) -> None:
        for s in _slices(terms.size):
            ms = mask[s]
            if ms.all():
                terms[s] = lw[s] + _log_tails(delta, log_sigma + ls[s])
            elif ms.any():
                terms[s][ms] = lw[s][ms] + _log_tails(delta, log_sigma + ls[s][ms])

    keep = terms >= floor
    evaluate(keep)
    skipped = n - int(np.count_nonzero(keep))
    if skipped:
        # A skipped term lies below its bound, and so below floor up to
        # rounding far under 1 nat: the skipped exp(t - m) add up to less
        # than slack. Rounding is monotone, so when adding slack leaves the
        # rounded sum of the kept terms unchanged, adding the skipped terms
        # would too. The largest term is kept: it is at least the anchor.
        m = float(np.max(terms, where=keep, initial=-math.inf))
        slack = skipped * math.exp(floor - m + 1.0)
        pair = _fsum_pair(_exp_diffs(terms, m, keep), slack)
        if pair is not None and pair[0] == pair[1]:
            return m + math.log(pair[0])
        if terms.size < n:
            return None
        evaluate(~keep)
    return _logsumexp(terms)


# The enumeration ceiling in classes: no tail reads more of them.
_MAX_CLASSES = 2**MAX_ENUMERATION_DEPTH + 1


def _check_class_count(count: int, n: int) -> None:
    if count > _MAX_CLASSES:
        raise EnumerationLimitError(
            f"a tail of this mixture reads {count} of its {n} classes, past the "
            f"ceiling of 2^{MAX_ENUMERATION_DEPTH} + 1"
        )


def _class_window(classes: BinomialClasses, delta: float, log_sigma: float):
    # (lw, ls, bounds, floor) over a run of the classes that holds every
    # class whose bound reaches floor; None when floor is -inf. The bound
    # of class j, ln w_j - ln 2 - E_j with the tail factor E_j = C e^(-beta j)
    # (ln w_j when delta <= 0), is concave in j: ln C(n, j) is, and the
    # log-scales are linear in j. The run first reaches out from the peak
    # of an estimate of the bound (lgamma for ln C(n, j)) until the estimate
    # has fallen further than floor lies below the largest bound; it grows
    # until the computed bound at each end lies below floor by more than
    # the rounding in any bound: past such an end the exact bound only
    # falls, so no computed one reaches floor.
    n, a = classes.n, classes.a
    up, down = math.log1p(a), math.log1p(-a)
    beta = 2.0 * (up - down)
    ln_d = math.log(delta) if delta > 0.0 else -math.inf
    ln_c = 2.0 * (ln_d - 0.5 * _LN2 - log_sigma - n * down)  # ln E_0, -inf when delta <= 0
    fall = -math.expm1(-beta)
    exp, lgamma, log = math.exp, math.lgamma, math.log

    def estimate(j: int) -> float:
        return -lgamma(j + 1) - lgamma(n - j + 1) - exp(min(ln_c - beta * j, 700.0))

    # The peak is the first j whose rise to j + 1, ln((n - j)/(j + 1)) +
    # E_j (1 - e^(-beta)), is not positive: the rise falls with j.
    peak = bisect.bisect_left(range(n), True, key=lambda j: log((n - j) / (j + 1))
                              + exp(min(ln_c - beta * j, 700.0)) * fall <= 0.0)
    # The largest bound lies _GAP + 0.23 + asinh(sqrt(E/2)) above floor. A
    # parabola of the estimate's curvature at the peak falls that far at
    # width; each end starts width from the peak and doubles its distance
    # until the estimate there lies below low.
    e_peak = exp(min(ln_c - beta * peak, 700.0))
    drop = _GAP + 3.0 + math.asinh(math.sqrt(e_peak / 2.0))
    low = estimate(peak) - drop
    curvature = 1.0 / (peak + 1) + 1.0 / (n - peak + 1) + fall * fall * e_peak
    width = int(math.sqrt(2.0 * drop / curvature)) + 1
    x = width
    while peak - x > 0 and estimate(peak - x) >= low:
        x *= 2
    lo, x = max(0, peak - x), width
    while peak + x < n and estimate(peak + x) >= low:
        x *= 2
    hi = min(n, peak + x) + 1
    # Rounding moves a log-weight by far less than 2^-40 n, and a tail
    # factor E by far less than rel of itself. At the largest bound and at
    # an end that lies near floor, E is at most the run's largest ln w_j -
    # ln 2 - floor; the margin holds twice both errors.
    rel = 2.0**-40 * (n * (up - down) + abs(log_sigma) + (abs(ln_d) if delta > 0.0 else 0.0)
                      + 1000.0)
    step = max(16, (hi - lo) // 2)
    while True:
        _check_class_count(hi - lo, n + 1)
        lw, ls = classes.log_weights(lo, hi), classes.log_scales(lo, hi)
        bounds = _bounds(delta, log_sigma, lw, ls)
        floor = _floor(delta, log_sigma, ls, bounds)
        if floor == -math.inf:
            return None
        edge = floor - (1.0 + 2.0**-40 * n + rel * (float(lw.max()) + _LN_HALF - floor + 30.0))
        grow_lo = lo > 0 and bounds[0] >= edge
        grow_hi = hi <= n and bounds[-1] >= edge
        if not (grow_lo or grow_hi):
            return lw, ls, bounds, floor
        lo, hi = max(0, lo - step * grow_lo), min(n + 1, hi + step * grow_hi)
        step *= 2


def _every_logsumexp(delta: float, log_sigma: float, lw: np.ndarray, ls: np.ndarray) -> float:
    # _pruned_logsumexp over every component, each bounded first.
    terms = _bounds(delta, log_sigma, lw, ls)
    return _pruned_logsumexp(delta, log_sigma, lw, ls, terms,
                             _floor(delta, log_sigma, ls, terms), lw.size)


def _class_logsumexp(mixture: MixtureDistribution, delta: float, log_sigma: float) -> float:
    # _pruned_logsumexp over the window of classes; when its proof fails, or
    # nothing may be skipped, over every class. First, where class n has
    # ln|z| past 355, so has every class, as computed: with a >= 0 and
    # rounding monotone, class n has the largest computed log-scale. Then
    # every bound is -inf (its tail factor overflows), and so is every term
    # (_log_tails is -inf past LN_MAX / 2), so the full pass's sum is -inf.
    classes = mixture.classes
    n = classes.n
    log_sigma_n = log_sigma + n * math.log1p(classes.a)
    if delta > 0.0 and (math.log(delta) - 0.5 * _LN2) - log_sigma_n > 355.0:
        return -math.inf
    window = _class_window(classes, delta, log_sigma)
    if window is not None:
        value = _pruned_logsumexp(delta, log_sigma, *window, n + 1)
        if value is not None:
            return value
    _check_class_count(n + 1, n + 1)  # formed for this call, as a window is, not kept
    return _every_logsumexp(delta, log_sigma, classes.log_weights(), classes.log_scales())


def log_exceedance(mixture: MixtureDistribution, k) -> float | np.ndarray:
    """ln P(X > k) for a float or a 1-d array of thresholds k, returned as
    the same kind; computed per component in log space.

    Up to _CUT components, every threshold and component goes through one
    table pass, a block of thresholds at a time. Past it, each threshold
    bounds the terms from above, evaluates only the terms whose bound
    lies within _GAP of the anchor, and keeps that sum when adding a bound
    on all skipped terms leaves its rounded value unchanged; else it
    evaluates every term. An enumeration bounds every term. A grouped
    mixture bounds only a window of classes around the largest bound,
    which holds every class the full pass would keep, and reads every
    class only when the proof fails, or when nothing may be skipped and
    class n, the widest, has ln|z| of at most 355. Every result has the
    bits of the full sum, and an array of thresholds the bits of a loop
    over them.
    """
    deltas = _deltas(mixture, k)
    n = mixture.n_components
    log_sigma = math.log(mixture.sigma)
    if n <= _CUT or mixture.classes is None:  # formed once per call, not kept
        lw, ls = mixture.part("log_weights"), _every_log_scale(mixture)
    if n <= _CUT:
        sums = []
        for s in _slices(deltas.size, max(1, _LEAF // max(1, n))):
            sums += _row_logsumexp(lw + _log_tails(deltas[s, None], log_sigma + ls))
    elif mixture.classes is not None:
        sums = [_class_logsumexp(mixture, d, log_sigma) for d in deltas.tolist()]
    else:
        sums = [_every_logsumexp(d, log_sigma, lw, ls) for d in deltas.tolist()]
    ln_w = math.log(mixture.weight)
    return _like(k, [ln_w + v for v in sums])


def convexity_ratio(mixture: MixtureDistribution, k, *, base_log_p=None) -> float | np.ndarray:
    """Tail inflation P(X > k) / P(X > k | depth 0), against the base Gaussian,
    for a float or a 1-d array of thresholds k, returned as the same kind.

    Evaluated as a difference of log tail probabilities, so ratios of order
    10^18 on probabilities of order 10^-24 keep full relative accuracy. A
    ratio past the double range is inf. Where ln P of both lies below -max
    double (ln|z| past LN_MAX / 2 at every scale), both logs are -inf and
    the ratio is nan. base_log_p, when given, is the
    log_exceedance at k of the depth-0 mixture of the same mu and sigma,
    group_mixture(base, 0.0, 0), so a table of many mixtures takes it once.
    """
    ks = np.atleast_1d(k)
    if base_log_p is None:
        base = group_mixture(GaussianBase(mixture.mu, mixture.sigma), 0.0, 0)
        base_log_p = log_exceedance(base, ks)
    pairs = zip(log_exceedance(mixture, ks).tolist(), np.atleast_1d(base_log_p).tolist())
    logs = [top - bottom for top, bottom in pairs]
    return _like(k, [math.inf if d > LN_MAX else math.exp(d) for d in logs])


def _mean_scale_powers(mixture: MixtureDistribution, ms) -> np.ndarray:
    # E[scale^m] over the mixture weights for each m of ms (ascending), in
    # one pass over the leaves, each sum in np.sum's order. Each leaf is
    # the mixture's run over it: 2^N scales, as every enumeration has,
    # split into leaves that are exactly its streamed blocks. Each leaf
    # takes x^m as the product chain 1 * x * x * ... left to right, the
    # rule of montecarlo.sample: IEEE products round alike on every CPU,
    # where np.power's bits follow numpy's SIMD dispatch. In deep grouped
    # mixtures a tiny weight can meet a power that overflows; a leaf whose
    # sum is not finite takes such terms in log space and sums again.
    # Terms are never negative, so a finite leaf sum means every term of
    # the leaf was finite.
    n = mixture.n_components
    weighted = not mixture.zero_log_weights
    runs = mixture.runs(_pairwise_sum(lambda i, j: [(i, j)], 0, n))
    powers = np.empty(min(_LEAF, n))
    terms = np.empty(powers.size if weighted else 0)
    weights = np.empty(terms.size)

    def leaf(i: int, j: int) -> np.ndarray:
        _, x, ls, lw = next(runs)
        p = powers[: j - i]
        p.fill(1.0)
        if weighted:
            w = np.exp(lw, out=weights[: j - i])
        sums = np.empty(len(ms))
        done = 0
        for r, m in enumerate(ms):
            for _ in range(m - done):
                p *= x
            done = m
            t = np.multiply(p, w, out=terms[: j - i]) if weighted else p
            sums[r] = np.sum(t)
            if not math.isfinite(sums[r]):
                bad = ~np.isfinite(t)
                t = t.copy()  # p carries the chain on to the next power
                t[bad] = np.exp(lw[bad] + m * _logs(x, ls, bad))
                sums[r] = np.sum(t)
        return sums

    with np.errstate(over="ignore", invalid="ignore"):
        return mixture.weight * _pairwise_sum(leaf, 0, n)


def mixture_raw_moments(mixture: MixtureDistribution, orders) -> list[float]:
    """Raw moments E[X^k] for each order k of orders, by exact summation
    over the components: every E[scale^m] they need in one pass.

    Only even powers of the component scales contribute:
    E[X^k] = sum_{m even} C(k, m) E[Z^m] mu^(k-m) sigma^m * E[scale^m].
    """
    orders = list(orders)
    for order in orders:
        check_order(order)
    # At mu = 0 only m = k survives the factor mu^(k-m).
    ms = sorted({m for k in orders for m in range(2, k + 1, 2) if mixture.mu != 0.0 or m == k})
    means = dict(zip(ms, _mean_scale_powers(mixture, ms).tolist())) if ms else {}
    return [scale_mixture_moment(k, mixture.mu, mixture.sigma, means.__getitem__)
            for k in orders]


def mixture_abs_first_moment(mixture: MixtureDistribution) -> float:
    """E|X| for a centered mixture: sqrt(2/pi) sigma * E[scale].

    The mean scale is 1 for every balanced schedule, so this is invariant
    in both the rates and the depth.
    """
    if mixture.mu != 0.0:
        raise ValueError(
            "absolute first moment is only supported for centered mixtures (mu = 0)"
        )
    return gaussian_abs_first_moment(mixture.sigma) * float(_mean_scale_powers(mixture, [1])[0])


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
    log_p = log_exceedance(mixture, x)
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
