"""Branch construction for recursively perturbed scale parameters.

A depth-N schedule of error rates a(1)..a(N) generates all 2^N sign tuples.
Each tuple maps the base scale sigma to sigma * scale_i, either by the
product prod_j (1 + s_j a(j)) or, in additive mode, by 1 + sum_j s_j a^j.
The result is an equal-weight Gaussian mixture over the branches. A
constant rate also has a grouped form: n + 1 binomially weighted classes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from ._checks import LN_MAX, check_depth, check_rate, check_sigma

MAX_ENUMERATION_DEPTH = 24
"""Largest depth for which the 2^N branches are materialized explicitly."""

_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
_EXACT_BINOM_LIMIT = 300

# Loader's saddle-point binomial (C. Loader, "Fast and Accurate Computation
# of Binomial Probabilities", 2000; R's dbinom). stirlerr(k) = ln k! -
# (k + 1/2) ln k + k - ln(2 pi)/2: a table for k <= 15 (k = 0 unused), then
# its Stirling series with as many terms as each range needs.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_STIRLING_TERMS = ((35.0, 5), (80.0, 4), (500.0, 3), (math.inf, 2))  # k <= cut: terms


class Mode(Enum):
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class EnumerationLimitError(ValueError):
    """Depth too large to enumerate 2^N branches; group_mixture covers constant rates."""


class NonPositiveScaleError(ValueError):
    """A branch produced a scale multiplier <= 0."""


class ScheduleParseError(ValueError):
    """Schedule grammar string could not be parsed."""


# The additive rule: rate j must be a^j, a the first rate, within these.
_POWER_RTOL = 1e-9
_POWER_ATOL = 1e-15


def _times_power(c: float, x: float, k: int) -> float:
    """c x^k, through logs where x^k alone leaves the double range; a product
    past that range is inf, whatever its sign."""
    try:
        return c * x**k
    except OverflowError:
        if c == 0.0:
            return c
        ln_r = math.log(abs(c)) + k * math.log(abs(x))
        return math.exp(ln_r) if ln_r < LN_MAX else math.inf


@dataclass(frozen=True)
class ErrorSchedule:
    """Error rates a(1)..a(N), held as their rule, plus the way they combine.

    ``kind`` is constant (a at every level), bleed (a lam^(k-1) at level k),
    geometric (the additive powers a, a^2, ..., a^N) or explicit (the
    ``listed`` rates, ``a`` the first or 0.0). Construction checks the rule
    without building a rate: every rate must lie in [0, 1), and ADDITIVE
    rates must be the powers a, a^2, ..., a^N of the first, because the
    branch offsets are the signed sums of those powers. Only explicit lists
    choose their mode; geometric is ADDITIVE, constant and bleed are not.
    """

    kind: str
    depth: int
    a: float = 0.0
    lam: float | None = None
    listed: tuple[float, ...] = ()
    mode: Mode = Mode.MULTIPLICATIVE

    def __post_init__(self) -> None:
        # In one fixed order, so every command and depth names the same
        # first error.
        if self.kind not in ("constant", "bleed", "geometric", "explicit"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        additive = self.mode is Mode.ADDITIVE
        if self.kind != "explicit" and additive != (self.kind == "geometric"):
            raise ScheduleParseError(
                "mode=additive applies only to explicit: lists; "
                "the additive regime a, a^2, ..., a^N is geometric:a=<r>,N=<n>"
            )
        if self.kind == "explicit":
            rates = self.listed
            for j, r in enumerate(rates, start=1):
                check_rate(r, f"rate a({j})")
            # Every rate lies in [0, 1) by now, so no power leaves the double range.
            for j, r in enumerate(rates if additive else (), start=1):
                if not math.isclose(r, rates[0]**j, rel_tol=_POWER_RTOL, abs_tol=_POWER_ATOL):
                    raise ValueError(
                        "additive schedules require rates a, a^2, ..., a^N; "
                        f"position {j} has {r!r}, expected {rates[0]**j!r}"
                    )
            if self.depth != len(rates):
                raise ScheduleParseError(
                    "explicit schedules have a fixed depth; cannot override N")
            return
        check_rate(self.a, "rate a(1)")
        check_depth(self.depth)
        if self.kind != "bleed":
            return  # constant rates are a; geometric powers of a < 1 fall
        lam = self.lam
        if not (lam is not None and lam >= 0.0 and math.isfinite(lam)):
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
        if lam > 1.0:  # the rates rise: bisect for the first at 1 or above
            k = bisect.bisect_left(range(self.depth), True,
                                   key=lambda j: _times_power(self.a, lam, j) >= 1.0)
            if k < self.depth:
                check_rate(_times_power(self.a, lam, k), f"rate a({k + 1})")

    @property
    def rates(self) -> tuple[float, ...]:
        """a(1)..a(N), built anew at each read: N floats, so read it only
        where the depth is bounded, as build_mixture does after its ceiling check."""
        a, n = self.a, self.depth
        if self.kind == "constant":
            return (a,) * n
        if self.kind == "bleed":
            return tuple(_times_power(a, self.lam, k) for k in range(n))
        if self.kind == "geometric":
            return tuple(a**j for j in range(1, n + 1))
        return self.listed

    def at_depth(self, n: int) -> "ErrorSchedule":
        """The same rule at depth n, checked anew; an explicit list keeps its own."""
        return replace(self, depth=n)

    @classmethod
    def constant(cls, a: float, n: int) -> "ErrorSchedule":
        """Flat rate a at every level."""
        return cls("constant", n, float(a))

    @classmethod
    def bleed(cls, a1: float, lam: float, n: int) -> "ErrorSchedule":
        """Geometrically decaying rates a(k) = lam^(k-1) * a1."""
        return cls("bleed", n, float(a1), float(lam))

    @classmethod
    def geometric(cls, a: float, n: int) -> "ErrorSchedule":
        """Additive-mode schedule with rates a, a^2, ..., a^n."""
        return cls("geometric", n, float(a), mode=Mode.ADDITIVE)

    @classmethod
    def explicit(cls, rates, mode: Mode = Mode.MULTIPLICATIVE) -> "ErrorSchedule":
        """The given rates, in order."""
        listed = tuple(float(r) for r in rates)
        return cls("explicit", len(listed), listed[0] if listed else 0.0, listed=listed, mode=mode)


@dataclass(frozen=True)
class GaussianBase:
    """Location and scale of the unperturbed Gaussian."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        check_sigma(self.sigma)


# The last _TAIL_LAYERS layers of an enumeration expand each head element
# into _SCALE_BLOCK scales; the build expands runs of head elements into
# blocks of about _BUILD_BLOCK scales. Both keep their scratch in cache.
_TAIL_LAYERS = 14
_SCALE_BLOCK = 2**_TAIL_LAYERS
_BUILD_BLOCK = 2**16


def _expand(x: np.ndarray, op, moves, out: np.ndarray, scratch: np.ndarray) -> None:
    """x through the moves, the last layer written into out; the layers
    between alternate between the two rows of scratch. Element i of a
    layer goes to elements 2i (up) and 2i + 1 (down) of the next: one
    ufunc call per sign, where an outer product loops over 2 per row."""
    if not moves:
        out[:] = x
    for t, (up, down) in enumerate(moves, start=1):
        y = (out if t == len(moves) else scratch[t % 2, : 2 * x.size]).reshape(-1, 2)
        op(x, up, out=y[:, 0])
        op(x, down, out=y[:, 1])
        x = y.ravel()


@dataclass(frozen=True)
class ScaleExpansion:
    """The 2^N scales of an enumeration, held as a head of 2^(N-k) partial
    scales and the (up, down) moves of the last k = min(N, 14) layers.

    Head element i expands into scales i 2^k to (i + 1) 2^k - 1. Every
    scale is the same left-to-right chain of ufunc steps however the head
    is split, so neither the build nor the blocks move a bit. ADDITIVE
    expansions add the 1 last.
    """

    head: np.ndarray
    op: np.ufunc
    moves: tuple[tuple[float, float], ...]
    additive: bool

    def _fill(self, i: int, run: int, out: np.ndarray, scratch: np.ndarray) -> None:
        # Head elements i to i + run - 1 through the moves, into out.
        _expand(self.head[i : i + run], self.op, self.moves, out, scratch)
        if self.additive:
            out += 1.0

    def _run(self, size: int) -> int:
        # Head elements whose expansion fills about size scales.
        return min(self.head.size, size >> len(self.moves))

    def build(self) -> np.ndarray:
        """Every scale, in one new array: runs of head elements go through
        the moves in cache-sized scratch, straight into their part of it."""
        k, run = len(self.moves), self._run(_BUILD_BLOCK)
        scales = np.empty(self.head.size << k)
        scratch = np.empty((2, (run << k) // 2))
        for i in range(0, self.head.size, run):
            self._fill(i, run, scales[i << k : (i + run) << k], scratch)
        return scales

    def blocks(self):
        """The scales in order, min(2^N, _SCALE_BLOCK) at a time: read-only
        views of one reused scratch, each valid until the next is drawn."""
        run = self._run(_SCALE_BLOCK)
        out = np.empty(run << len(self.moves))
        scratch = np.empty((2, out.size // 2))
        view = out.view()
        view.setflags(write=False)
        for i in range(0, self.head.size, run):
            self._fill(i, run, out, scratch)
            yield view

    def ends(self) -> tuple[float, float]:
        """The first and last scales: branch 0 takes every up move, branch
        2^N - 1 every down move. Rounding is monotone, so they are the
        largest and the smallest scale."""
        first, last = self.head[:1], self.head[-1:]
        for up, down in self.moves:
            first, last = self.op(first, up), self.op(last, down)
        if self.additive:
            first, last = first + 1.0, last + 1.0
        return float(first[0]), float(last[0])


@dataclass(frozen=True)
class BinomialClasses:
    """The n + 1 classes of the depth-n constant-rate mixture, held as their
    rule (a, n): class j holds the C(n, j) branches with j up-moves, of
    scale (1+a)^j (1-a)^(n-j) and weight C(n, j) 2^-n.

    Each array is formed over any run of classes lo..hi-1 (every class by
    default) with the elementwise formulas of the whole, so a run has the
    bits of the same slice of the whole. The formulas hold j and n as
    doubles, so no array is formed past n = 2^53, where doubles skip
    integers: that is an EnumerationLimitError.
    """

    a: float
    n: int

    def _check_exact(self) -> None:
        if self.n > 2**53:
            raise EnumerationLimitError(
                f"depth {self.n} puts class indices past 2^53, where doubles skip integers"
            )

    def log_weights(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        self._check_exact()
        return _binomial_log_weights(self.n, lo, self.n + 1 if hi is None else hi)

    def log_scales(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        self._check_exact()
        j = np.arange(lo, self.n + 1 if hi is None else hi, dtype=np.float64)
        out = j * math.log1p(self.a)
        out += np.multiply(self.n - j, math.log1p(-self.a), out=j)
        return out


_ARRAYS = ("scales", "log_scales", "log_weights")


@dataclass(frozen=True, eq=False)
class MixtureDistribution:
    """Mixture of Normal(mu, (sigma * scales[i])^2) components.

    Component i weighs ``weight * exp(log_weights[i])``. ``weight`` is an
    exact common factor: 2^-N for an enumeration (exp(-N ln 2) is not 2^-N
    in every bit), 1.0 for grouped classes. ``log_scales`` stays finite
    where ``scales`` leaves the double range. A mixture is a read-only view
    of one rule and keeps nothing. Arrays given are read-only. An
    enumeration gives ``scales`` as None with its ``expansion``, and
    ``log_scales`` as None (ln scale is taken where read); a grouped
    mixture gives all three as None with its ``classes``, and
    ``n_components`` forms none. Evaluators read the components through
    ``runs`` and ``part``; an array given as None is formed anew at each
    read of its attribute. Neither ``repr`` nor ``==`` forms an array: the
    repr leaves the arrays out, and mixtures compare by identity.
    """

    mu: float
    sigma: float
    scales: np.ndarray | None = field(repr=False)
    log_scales: np.ndarray | None = field(repr=False)
    weight: float
    log_weights: np.ndarray | None = field(repr=False)
    expansion: ScaleExpansion | None = None
    classes: BinomialClasses | None = None

    def __post_init__(self) -> None:
        given = vars(self)
        for name in _ARRAYS:
            rule = self.classes is not None or self.expansion is not None and name == "scales"
            if isinstance(given[name], np.ndarray):
                given[name].setflags(write=False)
            elif given[name] is None and rule:
                object.__delattr__(self, name)  # formed by the rule where read
        if given.get("scales", 0) is None or given.get("log_weights", 0) is None:
            raise ValueError("scales or log_weights given as None need a rule to form them "
                             "from: an expansion (the scales) or classes (every array)")

    def __getattr__(self, name: str):
        # Only an array given as None gets here, being off the instance.
        if name not in _ARRAYS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.part(name)

    def part(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray | None:
        """Components lo to hi - 1 (all by default) of the array name: a
        slice of the array given, else formed anew by the rule. Classes
        form just the run, with the bits of the same slice of the whole; an
        expansion builds every scale to slice them (evaluators read them
        whole, or streamed by ``runs``) and has no log-scales (None)."""
        array = vars(self).get(name)
        if array is not None:
            return array[lo:hi]
        if self.classes is None:
            return self.expansion.build()[lo:hi] if name == "scales" else None
        if name != "scales":
            return getattr(self.classes, name)(lo, hi)
        with np.errstate(over="ignore"):
            return np.exp(self.classes.log_scales(lo, hi))

    def runs(self, bounds=None):
        """(lo, scales, log_scales, log_weights) over each run [lo, hi) of
        bounds, ascending from 0 (by default runs of 2^14, the last may be
        shorter): each array's part, but an enumeration streams its
        expansion's blocks, which must be the runs. Those are read-only
        views of one reused scratch, each valid until the next is drawn."""
        n = self.n_components
        blocks = None if "scales" in vars(self) or self.classes else self.expansion.blocks()
        for lo, hi in bounds or ((i, min(i + _SCALE_BLOCK, n)) for i in range(0, n, _SCALE_BLOCK)):
            scales = self.part("scales", lo, hi) if blocks is None else next(blocks)
            yield lo, scales, self.part("log_scales", lo, hi), self.part("log_weights", lo, hi)

    @property
    def n_components(self) -> int:
        return self.classes.n + 1 if self.classes is not None else int(self.log_weights.size)

    @property
    def zero_log_weights(self) -> bool:
        """True when every log-weight is exactly 0 (every enumeration, and
        depth-0 classes): exp(log_weights) can be skipped."""
        lw = vars(self).get("log_weights")
        return self.classes.n == 0 if lw is None else not lw.any()


def build_mixture(base: GaussianBase, schedule: ErrorSchedule) -> MixtureDistribution:
    """Equal-weight mixture over all 2^N branches of the schedule.

    Branches count in binary with +1 before -1 and the last layer flipping
    fastest: branch 0 takes every +a(j), branch 2^N - 1 every -a(j).
    MULTIPLICATIVE: scale = prod_j (1 + s_j a(j)), always positive.
    ADDITIVE: scale = 1 + sum_j s_j a^j; raises NonPositiveScaleError if
    any branch's offset sum reaches -1. Depth 0 yields the base Gaussian.
    The first N - 14 layers are built here; the scales are expanded from
    them where read.
    """
    n = schedule.depth
    if n > MAX_ENUMERATION_DEPTH:
        raise EnumerationLimitError(
            f"depth {n} exceeds the enumeration ceiling {MAX_ENUMERATION_DEPTH}; "
            "constant rates collapse to n + 1 classes with group_mixture"
        )
    additive = schedule.mode is Mode.ADDITIVE
    if additive:
        op, start, moves = np.add, np.zeros(1), [(a, -a) for a in schedule.rates]
    else:
        op, start = np.multiply, np.ones(1)
        moves = [(1.0 + a, 1.0 - a) for a in schedule.rates]
    k = min(n, _TAIL_LAYERS)
    head = np.empty(2 ** (n - k))
    _expand(start, op, moves[: n - k], head, np.empty((2, head.size // 2)))
    head.setflags(write=False)
    expansion = ScaleExpansion(head, op, tuple(moves[n - k :]), additive)
    if additive and expansion.ends()[1] <= 0.0:
        # The last branch has the smallest scale, so some scale is <= 0:
        # the blocks find the first.
        for i, block in enumerate(expansion.blocks()):
            bad = np.flatnonzero(block <= 0.0)
            if bad.size:
                b = i * block.size + int(bad[0])
                signs = tuple(1 - 2 * (b >> (n - 1 - j) & 1) for j in range(n))
                raise NonPositiveScaleError(
                    f"branch {b} with signs {signs} has scale {block[bad[0]]:.6g} <= 0"
                )
    # Equal weights as a zero-stride view: no weight array at depth 24.
    return MixtureDistribution(
        base.mu, base.sigma, None, None, 2.0**-n, np.broadcast_to(0.0, (2**n,)), expansion,
    )


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr at the ascending integers k >= 1: the table up to 15, then
    one slice per series length."""
    out = np.empty_like(k)
    lo, *cuts = k.searchsorted([15.0] + [cut for cut, _ in _STIRLING_TERMS], "right").tolist()
    out[:lo] = _STIRLERR[k[:lo].astype(np.intp)]
    for (_, terms), hi in zip(_STIRLING_TERMS, cuts):
        if hi > lo:
            x, o = k[lo:hi], out[lo:hi]
            x2 = x * x
            o.fill(_STIRLING[terms - 1])
            for c in _STIRLING[terms - 2::-1]:  # Horner's rule in 1/k^2
                o /= x2
                np.subtract(c, o, out=o)
            o /= x
        lo = hi
    return out


def _bd0_series(x: np.ndarray, m: float) -> np.ndarray:
    """bd0(x, m) = x ln(x/m) + m - x where |x - m| < (x + m)/10, from its
    series in v = (x - m)/(x + m). Eight terms: the ninth is below 1e-18
    of the sum, since v^2 < 1/100."""
    d = x - m
    v = d / (x + m)
    s = d * v
    e = 2.0 * x * v
    v *= v
    for k in range(3, 19, 2):
        e *= v
        s += e / k
    return s


def _log_binomial_halves(n: int, lo: int, hi: int) -> np.ndarray:
    """ln C(n, j) 2^-n for j = lo..hi-1, 0 <= lo < hi <= n//2 + 1: -n ln 2
    at j = 0 and, above it, Loader's stirlerr(n) - stirlerr(j) -
    stirlerr(n-j) - bd0(j, n/2) - bd0(n-j, n/2) - (ln 2 pi + ln(j (n-j)/n))/2,
    elementwise, so a run has the bits of the same slice of the whole.
    Where j <= 9n/22, the two bd0 sum to j log1p(d) + (n-j) log1p(-d),
    d = (j - n/2)/(n/2): their m - x terms cancel exactly, and log1p keeps
    digits that ln(x/m) loses near the switch to the series."""
    m, r = n / 2.0, 9 * n // 22
    half = np.empty(hi - lo)
    if lo == 0:
        half[0] = -(n * _LN2)
    w = half[1:] if lo == 0 else half
    if w.size == 0:
        return half
    # One stirlerr pass over k: j, then n - j (ascending, since j <= n/2),
    # then n. x and y are j and n - j in the order of j.
    k = np.arange(2.0 * w.size + 1)
    k[: w.size] += hi - w.size
    k[w.size : -1] += n + 1 - hi - w.size
    k[-1] = n
    x, y = k[: w.size], k[-2 : w.size - 1 : -1]
    st = _stirlerr(k)
    np.subtract(st[-1], st[: w.size], out=w)
    w -= st[-2 : w.size - 1 : -1]
    t = st[: w.size]  # scratch from here on
    np.multiply(x, y, out=t)
    t /= n
    np.log(t, out=t)
    t += _LN_2PI
    t *= 0.5
    w -= t
    c = min(max(r - int(x[0]) + 1, 0), x.size)  # j <= r
    if c:
        d = np.subtract(x[:c], m, out=t[:c])
        d /= m
        up = np.log1p(d)
        up *= x[:c]
        np.negative(d, out=d)
        np.log1p(d, out=d)
        d *= y[:c]
        d += up
        w[:c] -= d
    if c < x.size:
        b = _bd0_series(np.concatenate((x[c:], y[c:])), m)
        w[c:] -= b[: x.size - c]
        w[c:] -= b[x.size - c :]
    return half


def _binomial_log_weights(n: int, lo: int, hi: int) -> np.ndarray:
    """ln C(n, j) 2^-n for j = lo..hi-1, from the half j <= n/2 mirrored:
    class j takes the value of class min(j, n - j)."""
    if hi <= lo:
        return np.empty(0)
    h = n // 2
    a, b = min(lo, n + 1 - hi), min(h, hi - 1, n - lo) + 1  # the half's run
    if n <= _EXACT_BINOM_LIMIT:
        # Exact binomials (they enter 1e-12 equivalence checks): math.comb's
        # integers by the recurrence C(n, i+1) = C(n, i) (n - i) / (i + 1).
        c, log_binom = 1, []
        for i in range(b):
            log_binom.append(math.log(c))
            c = c * (n - i) // (i + 1)
        half = np.array(log_binom[a:]) - n * _LN2
    else:
        half = _log_binomial_halves(n, a, b)
    out = np.empty(hi - lo)
    mid = min(max(lo, h + 1), hi)  # classes from mid on mirror the half
    out[: mid - lo] = half[lo - a : mid - a]
    out[mid - lo :] = half[n + 1 - hi - a : n + 1 - mid - a][::-1]
    return out


def group_mixture(base: GaussianBase, a: float, n: int) -> MixtureDistribution:
    """The depth-n constant-rate mixture as its n + 1 binomial classes.

    Class j holds the C(n, j) branches with j up-moves: scale
    (1+a)^j (1-a)^(n-j), weight C(n, j) 2^-n. The mixture holds the rule
    (a, n) and forms the classes of each run read, in O(run); the tails
    read a window of classes, so depths far past the enumeration ceiling
    work.
    """
    check_rate(a)
    check_depth(n)
    return MixtureDistribution(base.mu, base.sigma, None, None, 1.0, None,
                               classes=BinomialClasses(a, n))


def _parse_kv(args: str, expected: tuple[str, ...], text: str) -> dict[str, str]:
    found: dict[str, str] = {}
    for token in args.split(","):
        key, sep, value = token.partition("=")
        key = key.strip().lower()
        if not sep or key not in expected:
            raise ScheduleParseError(
                f"bad schedule argument {token!r} in {text!r}; expected keys {expected}"
            )
        if key in found:
            raise ScheduleParseError(f"duplicate key {key!r} in {text!r}")
        found[key] = value.strip()
    missing = [k for k in expected if k not in found]
    if missing:
        raise ScheduleParseError(f"schedule {text!r} missing keys {missing}")
    return found


def _to_float(value: str, text: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScheduleParseError(f"bad number {value!r} in schedule {text!r}") from None


def _to_int(value: str, text: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScheduleParseError(f"bad integer {value!r} in schedule {text!r}") from None


def parse_schedule_spec(text: str) -> ErrorSchedule:
    """Parse the schedule grammar into a checked ErrorSchedule.

    Grammar: ``constant:a=<real>,N=<int>`` | ``bleed:a1=<real>,lambda=<real>,N=<int>``
    | ``geometric:a=<real>,N=<int>`` | ``explicit:<comma-separated reals>``.
    The suffix ``;mode=additive`` marks an explicit list as additive; it is
    implied on geometric, the additive regime a, a^2, ..., a^N.

    Numbers are read as ``float()`` and ``int()`` read them, so with any
    Unicode decimal digits (U+0661 is a 1); kind names, keys and the suffix
    are case-insensitive; blank explicit items are skipped, as the list flags
    skip empty tokens.
    """
    body = text.strip()
    additive = False
    if ";" in body:
        body, _, suffix = body.partition(";")
        if suffix.strip().lower() != "mode=additive":
            raise ScheduleParseError(f"unrecognized schedule suffix {suffix!r}")
        additive = True
    kind, sep, args = body.strip().partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in ("constant", "bleed", "geometric", "explicit"):
        raise ScheduleParseError(
            f"schedule {text!r} must start with constant:, bleed:, geometric: or explicit:"
        )
    mode = Mode.ADDITIVE if additive or kind == "geometric" else Mode.MULTIPLICATIVE
    if kind == "explicit":
        tokens = [tok for tok in args.split(",") if tok.strip()]
        return ErrorSchedule.explicit([_to_float(tok, text) for tok in tokens], mode)
    keys = ("a1", "lambda", "n") if kind == "bleed" else ("a", "n")
    kv = _parse_kv(args, keys, text)
    return ErrorSchedule(
        kind,
        _to_int(kv["n"], text),
        _to_float(kv[keys[0]], text),
        _to_float(kv["lambda"], text) if kind == "bleed" else None,
        mode=mode,
    )
