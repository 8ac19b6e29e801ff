"""Seeded Monte Carlo validation of branch mixtures.

Sampling picks a branch index uniformly (equivalent to N independent fair
sign flips) and then draws from the branch's Gaussian. Summaries hold
sufficient statistics only; the generator is numpy's PCG64, which produces
identical streams for a given seed on every platform. sample reads each
block's indices from a copy of the stream on the calling thread, a leaf at
a time, while a worker thread of its own, kept off the calling thread's
CPU, draws the normals that follow them; the stream, and so every bit, is
that of one thread drawing alone, and concurrent calls are safe.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import check_order
from .branching import MixtureDistribution
from .mixstats import _LEAF, _pairwise_sum

_BLOCK = 1 << 20
# Leaf buffers of normals: the leaf being summed and the two drawn ahead.
_RING = 3
# The calling thread's stat line; its field 39 is the CPU it last ran on.
_THREAD_STAT = "/proc/thread-self/stat"


@dataclass(frozen=True)
class SampleSpec:
    """Sample size, seed, and the targets to estimate."""

    n_samples: int
    seed: int
    moment_orders: tuple[int, ...] = (1, 2, 3, 4)
    thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if (not isinstance(self.n_samples, int) or isinstance(self.n_samples, bool)
                or self.n_samples < 1):
            raise ValueError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "moment_orders", tuple(int(k) for k in self.moment_orders))
        object.__setattr__(self, "thresholds", tuple(float(k) for k in self.thresholds))
        for k in self.moment_orders:
            check_order(k, lowest=1)


@dataclass
class MCSummary:
    """Sufficient statistics of a sampling run."""

    n: int
    moment_orders: tuple[int, ...]
    thresholds: tuple[float, ...]
    # power_sums[k] = sum of x^k for k up to twice the highest order: x^2k
    # gives the SE of moment k.
    power_sums: np.ndarray
    exceed_counts: dict[float, int]


def _draw_normals(rng: np.random.Generator, todo, done) -> None:
    # The worker thread: fills each buffer it is handed on the queue todo
    # with the stream's next normals, in the order handed, until it is
    # handed None, and puts None (or the exception that stopped it) on the
    # queue done for each. The caller forms every buffer, so the worker
    # allocates no array: the glibc arena the thread gets for its start-up
    # stays one 132 KiB heap with 2.3 KB in use.
    while (z := todo.get()) is not None:
        try:
            rng.standard_normal(out=z)
        except Exception as exc:  # the caller raises it, unchanged
            done.put(exc)
            return
        done.put(None)


def _keep_off_this_cpu(worker: threading.Thread) -> None:
    # Lets worker run on every CPU this thread may use but the one it is on.
    # Woken by this thread a leaf at a time, the worker is otherwise mostly
    # placed on the waker's CPU, and the two threads take turns there while
    # another CPU idles. This thread's own mask is left alone; the worker's
    # ends with the worker. Nothing is done where fewer than two CPUs are
    # allowed, or affinity or /proc is missing: where a thread runs changes
    # no bit.
    setaffinity = getattr(os, "sched_setaffinity", None)
    if setaffinity is None or len(allowed := os.sched_getaffinity(0)) < 2:
        return
    try:
        with open(_THREAD_STAT, "rb") as fh:
            # Fields count from 1, and from 3 after the name's ")", which
            # the name itself may hold.
            cpu = int(fh.read().rpartition(b")")[2].split()[39 - 3])
        setaffinity(worker.native_id, allowed - {cpu})
    except (OSError, ValueError, IndexError):
        pass


def _skip_indices(rng: np.random.Generator, n: int, m: int) -> None:
    # Moves rng past the next m indices below n. numpy draws each from one
    # 32-bit half of a 64-bit output, rejecting none when n is a power of
    # two (and drawing none for n = 1), so rng jumps ahead; a block starts
    # on a whole output, every block but the last being even. Any other n
    # rejects at random: rng draws the indices a leaf at a time, dropped.
    if n & (n - 1) == 0:
        if n > 1:
            rng.bit_generator.advance((m + 1) // 2)
        return
    for i in range(0, m, _LEAF):
        rng.integers(0, n, size=min(_LEAF, m - i), dtype=np.int32)


def sample(mixture: MixtureDistribution, spec: SampleSpec) -> MCSummary:
    """Draw spec.n_samples values; identical inputs give identical summaries.

    Draws are blocked to bound memory; the block size is fixed so the
    stream, and therefore every statistic, is reproducible bit for bit.
    The stream holds each block's component indices, then its normals; the
    block is drawn and summed a cache-sized leaf at a time, in np.sum's own
    order. This thread reads the indices from a copy of the block-start
    state, a leaf at a time, and moves the generator past them, where a
    worker thread that lives for the call draws the normals up to
    _RING - 1 leaves ahead while this thread gathers, scales and sums the
    leaf before (numpy releases the GIL in all three); at each block's
    start the worker is kept off this thread's CPU, so the two run side by
    side where two CPUs are allowed. Each generator is
    drawn by one thread, in the order of a single-threaded run, so the
    stream and every bit are unchanged: a block whose indices do not end
    where its normals start raises RuntimeError. The worker ends before
    the call returns or raises, and its exceptions are raised here
    unchanged; each call owns its generators, buffers and worker, so
    concurrent calls are safe.
    Components are drawn uniformly, so every weight must be equal. Power
    sums run up to x^(2 max order), the highest power estimate reads.
    """
    # Two or more binomial classes weigh C(n, j) 2^-n, unequal: refused
    # before any class array is formed.
    if (mixture.classes.n >= 2 if mixture.classes is not None else
            not mixture.zero_log_weights
            and np.any((lw := mixture.part("log_weights")) != lw[0])):
        raise ValueError("sample needs equal component weights; got a weighted mixture")
    scales = mixture.part("scales")  # the array every leaf gathers from, formed once
    # Imported on the first call: imported with the module, it slowed the
    # calls that never sample by about 2% (the benchmark's binomial tails).
    import queue

    rng = np.random.default_rng(spec.seed)
    # The indices' generator, given rng's state at each block's start;
    # seeded so that forming it reads no OS entropy.
    ix = np.random.Generator(np.random.PCG64(0))
    n = mixture.n_components
    n_pow = 2 * max(spec.moment_orders, default=0) + 1
    power_sums = np.zeros(n_pow)
    exceed = {k: 0 for k in spec.thresholds}
    size = min(_LEAF, spec.n_samples)
    x, powers, ring = np.empty(size), np.empty(size), np.empty((_RING, size))
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    leaves: list[tuple[int, int]] = []  # the block's leaves, in the order summed
    t = 0  # the leaf being summed

    def draw(u: int) -> None:
        # Hands the worker leaf u's buffer, when the block has a leaf u.
        if u < len(leaves):
            i, j = leaves[u]
            todo.put(ring[u % _RING, : j - i])

    def leaf(i: int, j: int) -> np.ndarray:
        # Sums of x^0..x^(n_pow - 1), then the exceedance counts, over draws
        # i..j of the block: every power stays in cache. That the stream is
        # the one of a single block-long draw of indices, then of normals,
        # rests on ix and the worker drawing, and _pairwise_sum visiting,
        # the same leaves once each, in ascending order. int32 indices:
        # numpy bounds int32 and int64 alike from 32-bit draws below 2^32,
        # so the values and the stream are those of int64.
        nonlocal t
        xl, xp = x[: j - i], powers[: j - i]
        # mu + sigma * scale * z in place; this order fixes every bit of the sums.
        np.take(scales, ix.integers(0, n, size=j - i, dtype=np.int32), out=xl)
        xl *= mixture.sigma
        error = done.get()  # leaf t's normals are in
        if error is not None:
            try:
                raise error
            finally:  # else this frame and the traceback would hold each other
                del error
        zl = ring[t % _RING, : j - i]
        draw(t + _RING - 1)  # into the buffer of leaf t - 1, summed
        t += 1
        xl *= zl
        xl += mixture.mu
        sums = np.empty(n_pow + len(exceed))
        sums[0] = j - i
        np.copyto(xp, xl)  # x^1: 1.0 * x in every bit
        for k in range(1, n_pow):
            if k > 1:
                xp *= xl
            sums[k] = xp.sum()
        for s, k in enumerate(exceed, start=n_pow):
            sums[s] = np.count_nonzero(xl > k)
        return sums

    worker = threading.Thread(target=_draw_normals, args=(rng, todo, done),
                              name="branchvol-normals", daemon=True)
    worker.start()
    try:
        # Powers past the double range are inf or nan; estimate refuses them.
        with np.errstate(over="ignore", invalid="ignore"):
            remaining = spec.n_samples
            while remaining:
                m = min(_BLOCK, remaining)
                # The worker is idle here: every normal of the last block is in.
                _keep_off_this_cpu(worker)
                ix.bit_generator.state = rng.bit_generator.state
                _skip_indices(rng, n, m)
                start = rng.bit_generator.state["state"]  # where the normals start
                leaves[:] = _pairwise_sum(lambda i, j: [(i, j)], 0, m)
                t = 0
                for u in range(_RING - 1):
                    draw(u)
                sums = _pairwise_sum(leaf, 0, m)
                if ix.bit_generator.state["state"] != start:
                    raise RuntimeError("the block's indices and normals overlap in the stream")
                power_sums += sums[:n_pow]
                for s, k in enumerate(exceed, start=n_pow):
                    exceed[k] += int(sums[s])
                remaining -= m
    finally:
        todo.put(None)
        worker.join()
    return MCSummary(
        n=spec.n_samples,
        moment_orders=spec.moment_orders,
        thresholds=spec.thresholds,
        power_sums=power_sums,
        exceed_counts=exceed,
    )


@dataclass(frozen=True)
class TargetEstimate:
    kind: str  # "moment" or "exceedance"
    key: float  # the order, or the threshold
    estimate: float
    se: float
    reliable: bool


@dataclass(frozen=True)
class MomentsReport:
    """Point estimates with standard errors for every requested target."""

    n: int
    targets: tuple[TargetEstimate, ...]


def check_estimable(n: int) -> None:
    """Raise ValueError unless estimate takes n draws: it needs 30."""
    if n < 30:
        raise ValueError(f"need at least 30 samples to estimate, got {n}")


def estimate(summary: MCSummary) -> MomentsReport:
    """Estimates and standard errors from a summary.

    Raw-moment estimates are sample means of x^k, so their SE is the sample
    standard deviation of x^k over sqrt(n); moment k is flagged unreliable
    when the mean of x^k or x^2k is not finite, or that of x^2k lies below
    the normal doubles, where the SE is lost. Exceedance targets get
    binomial SEs and are flagged unreliable once the estimated probability
    drops below 10/n.
    """
    n = summary.n
    check_estimable(n)
    mean_pow = summary.power_sums / n
    targets = []
    for k in summary.moment_orders:
        est, square = float(mean_pow[k]), float(mean_pow[2 * k])
        var = max(0.0, square - est * est)
        reliable = math.isfinite(est) and math.isfinite(square) and square >= sys.float_info.min
        targets.append(TargetEstimate("moment", float(k), est, math.sqrt(var / n), reliable))
    for k in summary.thresholds:
        p = summary.exceed_counts[k] / n
        se = math.sqrt(p * (1.0 - p) / n)
        targets.append(TargetEstimate("exceedance", k, p, se, p >= 10.0 / n))
    return MomentsReport(n=n, targets=tuple(targets))


@dataclass(frozen=True)
class TargetCheck:
    """One estimate against its closed-form reference."""

    kind: str
    key: float
    estimate: float
    se: float
    reference: float
    z: float | None
    reliable: bool
    passed: bool | None  # None when the target was refused as unreliable


def check_report(
    report: MomentsReport, references: dict[tuple[str, float], float]
) -> list[TargetCheck]:
    """Compare every target against its reference within 4 standard errors.

    Unreliable targets are refused (passed = None) rather than reported as
    confirmations; zero-SE targets pass only on exact equality.
    """
    checks = []
    for t in report.targets:
        ref = references[(t.kind, t.key)]
        if not t.reliable:
            checks.append(TargetCheck(t.kind, t.key, t.estimate, t.se, ref, None, False, None))
            continue
        if t.se == 0.0:
            passed = t.estimate == ref
            z = 0.0 if passed else math.inf
        else:
            z = (t.estimate - ref) / t.se
            passed = abs(z) <= 4.0
        checks.append(TargetCheck(t.kind, t.key, t.estimate, t.se, ref, z, True, passed))
    return checks
