"""Seeded sampling: determinism, uniform branch hits, and
agreement with the exact values at 4 standard errors."""

import gc
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from branchvol import cli, mixstats, montecarlo
from branchvol.branching import (
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    build_mixture,
    group_mixture,
)
from branchvol.closedform import schedule_moments
from branchvol.mixstats import exceedance
from branchvol.montecarlo import (
    _BLOCK,
    MCSummary,
    SampleSpec,
    TargetEstimate,
    check_report,
    estimate,
    sample,
)
from cli_tables import parse_table_csv

BASE = GaussianBase(0.0, 1.0)


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    # sample's worker thread ends before the call returns or raises.
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def _mix(a, n):
    return build_mixture(BASE, ErrorSchedule.constant(a, n))


class TestDeterminism:
    def test_identical_seeds_identical_summaries(self):
        mix = _mix(0.1, 6)
        spec = SampleSpec(n_samples=50_000, seed=123, thresholds=(1.0, 3.0))
        s1 = sample(mix, spec)
        s2 = sample(mix, spec)
        assert np.array_equal(s1.power_sums, s2.power_sums)
        # Both follow the seed's stream: branch indices, then normals.
        assert np.array_equal(s1.power_sums, _replay(mix, 50_000, 123)[0][:9])
        assert s1.exceed_counts == s2.exceed_counts
        r1, r2 = estimate(s1), estimate(s2)
        assert r1 == r2

    def test_different_seeds_differ(self):
        mix = _mix(0.1, 6)
        s1 = sample(mix, SampleSpec(n_samples=10_000, seed=1))
        s2 = sample(mix, SampleSpec(n_samples=10_000, seed=2))
        assert not np.array_equal(s1.power_sums, s2.power_sums)


def _replay(mixture, n_samples, seed, thresholds=(), block=1 << 20):
    # The original sampler, written out and run on this thread alone:
    # x = mu + sigma * scale * z, then xp = xp * x up to x^16 and the
    # exceedance counts, one block of draws at a time.
    rng = np.random.default_rng(seed)
    sums = np.zeros(17)
    exceed = dict.fromkeys(thresholds, 0)
    remaining = n_samples
    while remaining:
        m = min(block, remaining)
        idx = rng.integers(0, mixture.n_components, size=m)
        x = mixture.mu + mixture.sigma * mixture.scales[idx] * rng.standard_normal(m)
        xp = np.ones(m)
        sums[0] += m
        for k in range(1, 17):
            xp = xp * x
            sums[k] += float(xp.sum())
        for k in thresholds:
            exceed[k] += int(np.count_nonzero(x > k))
        remaining -= m
    return sums, exceed


class _LoggedGenerator:
    """numpy's generator for a seed, logging each draw as (kind, size, the
    128-bit state it starts from); the standard_normal call numbered
    fail_at (from 1) raises error instead."""

    def __init__(self, seed, fail_at=None, error=None):
        self.rng, self.log = np.random.default_rng(seed), []
        self.bit_generator = self.rng.bit_generator
        self.fail_at, self.error = fail_at, error

    def _draws(self, kind, size):
        self.log.append((kind, size, self.bit_generator.state["state"]))

    def integers(self, low, high, *, size, dtype):
        self._draws("integers", size)
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def standard_normal(self, *, out):
        self._draws("normals", out.size)
        if sum(kind == "normals" for kind, *_ in self.log) == self.fail_at:
            raise self.error
        return self.rng.standard_normal(out=out)


class TestStream:
    """Power sums stop at the highest power estimate reads, and the stream
    and every sum stay those of the original sampler, across blocks."""

    MIX = build_mixture(GaussianBase(0.3, 1.7), ErrorSchedule.bleed(0.2, 0.9, 6))
    N = (1 << 20) + 5

    @pytest.mark.parametrize("orders", [(1, 2, 3, 4), (8,), (1, 2), ()])
    def test_power_sums_match_the_replay(self, orders):
        summary = sample(self.MIX, SampleSpec(n_samples=self.N, seed=17, moment_orders=orders))
        top = 2 * max(orders, default=0)
        assert summary.power_sums.shape == (top + 1,)
        replay = _replay(self.MIX, self.N, 17)[0]
        assert np.array_equal(summary.power_sums, replay[: top + 1])

    # One draw; a leaf less, one and one more than a leaf; a block and one
    # more; and the two blocks of the benchmark's validate calls.
    @pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14, 2**14 + 1, 2**20, 2**20 + 1, 2_000_000])
    def test_sums_and_counts_match_the_replay(self, n):
        thresholds = (0.5, 2.0, 30.0)
        replay, counts = _replay(self.MIX, n, 29, thresholds)
        for orders in [(1, 2, 3, 4), (8,), ()]:
            summary = sample(self.MIX, SampleSpec(n, 29, orders, thresholds))
            top = 2 * max(orders, default=0)
            assert np.array_equal(summary.power_sums, replay[: top + 1])
            assert summary.exceed_counts == counts

    # The benchmark's three validate calls: constant rate, 2e6 draws, orders
    # 1-4 and thresholds at 1, 2 and 3 sigma.
    @pytest.mark.parametrize("depth, rate, seed", [(6, 0.2, 1), (8, 0.1, 2), (10, 0.15, 3)])
    def test_benchmark_validate_runs_match_the_replay(self, depth, rate, seed):
        base = GaussianBase(0.0, 1.3)
        mix = build_mixture(base, ErrorSchedule.constant(rate, depth))
        thresholds = tuple(base.mu + base.sigma * m for m in (1.0, 2.0, 3.0))
        summary = sample(mix, SampleSpec(2_000_000, seed, (1, 2, 3, 4), thresholds))
        replay, counts = _replay(mix, 2_000_000, seed, thresholds)
        assert np.array_equal(summary.power_sums, replay[:9])
        assert summary.exceed_counts == counts

    # Given equal-weight mixtures whose count is no power of two, whose
    # indices are drawn twice (once to skip them), and the depths whose
    # single component draws no index and whose two take one bit each.
    @pytest.mark.parametrize("mixture", [
        *(MixtureDistribution(0.3, 1.7, np.linspace(0.5, 2.0, c), None, 1.0 / c, np.zeros(c))
          for c in (3, 5, 1000)),
        *(build_mixture(GaussianBase(0.3, 1.7), ErrorSchedule.constant(0.2, d)) for d in (0, 1)),
    ], ids=["3", "5", "1000", "N=0", "N=1"])
    @pytest.mark.parametrize("n", [1, 2**14 + 1, 2**20 + 1, 2_000_001])
    def test_any_count_of_components_matches_the_replay(self, mixture, n):
        thresholds = (0.5, 2.0)
        summary = sample(mixture, SampleSpec(n, 23, thresholds=thresholds))
        replay, counts = _replay(mixture, n, 23, thresholds)
        assert np.array_equal(summary.power_sums, replay[:9])
        assert summary.exceed_counts == counts


class TestLeaves:
    """Each block is summed over cache-sized leaves: the counts are those of
    the whole block, memory stays near one leaf's draws, and no reference
    cycle outlives a call."""

    MIX = TestStream.MIX
    N = TestStream.N

    def test_counts_match_the_replay(self):
        thresholds = (0.5, 2.0)
        summary = sample(self.MIX, SampleSpec(n_samples=self.N, seed=17, thresholds=thresholds))
        assert summary.exceed_counts == _replay(self.MIX, self.N, 17, thresholds)[1]

    def test_peak_memory_is_the_block_draws(self):
        # Each leaf draws its own indices and normals; a block of int32
        # indices took 4.9 MiB in all, int64 indices and the block's
        # normals 17.1 MiB, full-length powers and products 25.7 MB.
        spec = SampleSpec(n_samples=self.N, seed=17, thresholds=(1.0, 3.0))
        tracemalloc.start()
        try:
            sample(self.MIX, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_one_block_of_indices_at_a_time(self):
        # 2e6 draws take a 2^20 block and one of 951424: two blocks of
        # indices held together took 8.0 MiB.
        spec = SampleSpec(n_samples=2_000_000, seed=17, thresholds=(1.0, 3.0))
        tracemalloc.start()
        try:
            sample(self.MIX, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_no_block_of_indices(self):
        # Indices a leaf at a time hold about 1 MiB at 2e6 draws, where one
        # block of 4 MiB of indices at a time held 4.9 MiB.
        spec = SampleSpec(n_samples=2_000_000, seed=17, thresholds=(1.0, 3.0))
        tracemalloc.start()
        try:
            sample(self.MIX, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_leaves_tile_each_block_once_in_ascending_order(self, monkeypatch):
        # The worker draws the normals of the leaves one pass lists, in that
        # order, and the next pass sums the leaves and draws their indices
        # from a copy of the stream: the stream is that of one block-long
        # draw of each only if the indices start at the block's start and
        # the normals where the indices end, each a leaf at a time, once,
        # in ascending order. A replay of the stream on one generator
        # gives each draw's start.
        passes = []

        def recording(leaf, lo, hi):
            passes.append([])

            def logged(i, j):
                passes[-1].append((i, j))
                return leaf(i, j)
            return mixstats._pairwise_sum(logged, lo, hi)

        rng, ix, stream = _LoggedGenerator(17), _LoggedGenerator(0), np.random.default_rng(17)
        monkeypatch.setattr(montecarlo, "_pairwise_sum", recording)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        monkeypatch.setattr(np.random, "Generator", lambda bit_generator: ix)
        sample(self.MIX, SampleSpec(n_samples=self.N, seed=17))
        assert len(passes) == 4
        indices, normals = iter(ix.log), iter(rng.log)
        for listed, leaves, m in zip(passes[::2], passes[1::2], (1 << 20, 5)):
            assert leaves == listed
            assert leaves[0][0] == 0 and leaves[-1][1] == m
            assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
            assert all(0 < j - i <= mixstats._LEAF for i, j in leaves)
            for i, j in leaves:
                assert next(indices) == ("integers", j - i, stream.bit_generator.state["state"])
                stream.integers(0, self.MIX.n_components, size=j - i, dtype=np.int32)
            for i, j in leaves:
                assert next(normals) == ("normals", j - i, stream.bit_generator.state["state"])
                stream.standard_normal(j - i)
        assert next(indices, None) is None and next(normals, None) is None

    def test_indices_that_overlap_the_normals_raise(self, monkeypatch):
        # Not moved past the indices, the generator draws the normals from
        # the indices' own stream: the block's end-state check raises, and
        # the worker has ended.
        monkeypatch.setattr(montecarlo, "_skip_indices", lambda *args: None)
        with pytest.raises(RuntimeError, match="overlap"):
            sample(self.MIX, SampleSpec(n_samples=self.N, seed=17))
        assert not any(t.name == "branchvol-normals" for t in threading.enumerate())

    @pytest.mark.parametrize("n", [3, 5, 1000, 2**24 - 1, 2**24])
    def test_leafwise_indices_from_a_copy_take_the_block_stream(self, n):
        # What the skip rests on: a copy of the state drawn a leaf at a
        # time gives the one-block draw's values and end state, bit for bit.
        whole = np.random.default_rng(n)
        leafwise = np.random.default_rng(0)
        leafwise.bit_generator.state = whole.bit_generator.state
        m = 3 * mixstats._LEAF + 7
        block = whole.integers(0, n, size=m, dtype=np.int32)
        leaves = [leafwise.integers(0, n, size=min(mixstats._LEAF, m - i), dtype=np.int32)
                  for i in range(0, m, mixstats._LEAF)]
        assert np.array_equal(np.concatenate(leaves), block)
        assert leafwise.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("n", [2, 64, 2**24])
    @pytest.mark.parametrize("m", [1, 5, _BLOCK])
    def test_power_of_two_indices_take_half_an_output_each(self, n, m):
        # The jump the skip takes for an enumeration: no draw is rejected.
        drawn, jumped = np.random.default_rng(m), np.random.default_rng(m)
        drawn.integers(0, n, size=m, dtype=np.int32)
        jumped.bit_generator.advance((m + 1) // 2)
        assert drawn.bit_generator.state["state"] == jumped.bit_generator.state["state"]

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 2**20, 2**24])
    def test_int32_indices_take_the_int64_stream(self, n):
        for size in (1, 5, 2**20):
            narrow, wide = np.random.default_rng(n), np.random.default_rng(n)
            assert np.array_equal(narrow.integers(0, n, size=size, dtype=np.int32),
                                  wide.integers(0, n, size=size))
            assert narrow.bit_generator.state == wide.bit_generator.state

    def test_sampling_takes_no_log_scales(self):
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 12))
        sample(mix, SampleSpec(n_samples=1000, seed=3, thresholds=(1.0,)))
        assert mix.log_scales is None

    def test_no_reference_cycle_keeps_the_blocks(self):
        gc.collect()
        gc.disable()
        try:
            for n in (1000, self.N):
                sample(self.MIX, SampleSpec(n_samples=n, seed=3, thresholds=(1.0,)))
                assert gc.collect() == 0
        finally:
            gc.enable()


class _Failed(Exception):
    pass


class _FailingGather:
    """np.take whose third call, the third leaf's gather, raises."""

    def __init__(self, take):
        self._take, self.calls = take, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise _Failed("third leaf")
        return self._take(*args, **kwargs)


class TestWorker:
    """The normals are drawn on a worker thread that ends with the call, on
    every path, and whose exceptions reach the caller unchanged."""

    MIX = TestStream.MIX

    def test_a_failing_leaf_stops_the_worker(self, monkeypatch):
        take = _FailingGather(np.take)
        monkeypatch.setattr(np, "take", take)
        with pytest.raises(_Failed, match="third leaf"):
            sample(self.MIX, SampleSpec(n_samples=10 * mixstats._LEAF, seed=5))
        assert take.calls == 3

    def test_the_gather_array_is_formed_once_per_call(self, monkeypatch):
        # Ten leaves gather from one array of scales, formed for the call.
        parts, part = [], MixtureDistribution.part

        def recording(mixture, name, *args):
            parts.append(name)
            return part(mixture, name, *args)

        monkeypatch.setattr(MixtureDistribution, "part", recording)
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 12))
        sample(mix, SampleSpec(n_samples=10 * mixstats._LEAF, seed=5))
        assert parts == ["scales"] and "scales" not in vars(mix)

    @pytest.mark.parametrize("fail_at", [1, 3, 65])
    def test_a_worker_error_reaches_the_caller_unchanged(self, monkeypatch, fail_at):
        # The 65th leaf is the first of the second block.
        error = MemoryError("Unable to allocate the normals")
        rng = _LoggedGenerator(5, fail_at, error)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        with pytest.raises(MemoryError) as raised:
            sample(self.MIX, SampleSpec(n_samples=2_000_000, seed=5))
        assert raised.value is error
        # The worker stopped at the failing draw and drew nothing after it.
        assert rng.log[-1][0] == "normals"
        assert sum(kind == "normals" for kind, *_ in rng.log) == fail_at

    def test_a_worker_error_leaves_no_reference_cycle(self, monkeypatch):
        # A cycle through the raising frame would keep the block's indices
        # until a collection. The generator raises a new MemoryError each
        # time, so that it holds no traceback itself.
        rng = _LoggedGenerator(5, 3, MemoryError)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        gc.collect()
        gc.disable()
        try:
            try:
                sample(self.MIX, SampleSpec(n_samples=2_000_000, seed=5))
            except MemoryError:
                pass
            else:
                pytest.fail("the worker's MemoryError was not raised")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_the_cli_maps_a_worker_memory_error_to_exit_3(self, monkeypatch, capsys):
        rng = _LoggedGenerator(42, 2, MemoryError("Unable to allocate the normals"))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        rc = cli.main(["validate", "--schedule", "constant:a=0.1,N=8",
                       "--n-samples", "100000", "--seed", "42"])
        assert rc == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate the normals\n"

    def test_ctrl_c_ends_a_long_validate(self):
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["validate", "--schedule", "constant:a=0.1,N=8", "--n-samples", "10000000000"]
        proc = subprocess.Popen([sys.executable, "-m", "branchvol", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            time.sleep(1.0)
            assert proc.poll() is None  # still sampling
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert b"KeyboardInterrupt" in err

    def test_concurrent_calls_each_keep_their_stream(self):
        # More sampling threads than cores, each with its own worker, under a
        # short switch interval: every summary is its serial replay.
        seeds, n, thresholds = (11, 12, 13, 14), (1 << 20) + 5, (0.5, 2.0)
        summaries = {}

        def run(seed):
            summaries[seed] = sample(self.MIX, SampleSpec(n, seed, thresholds=thresholds))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            replay, counts = _replay(self.MIX, n, seed, thresholds)
            assert np.array_equal(summaries[seed].power_sums, replay[:9])
            assert summaries[seed].exceed_counts == counts


class _MaskedGenerator(_LoggedGenerator):
    """A _LoggedGenerator that also keeps, at each normal draw, the CPU
    mask of the thread drawing it."""

    def __init__(self, seed, fail_at=None, error=None):
        super().__init__(seed, fail_at, error)
        self.masks = []

    def standard_normal(self, *, out):
        self.masks.append(os.sched_getaffinity(0))
        return super().standard_normal(out=out)


_AFFINITY = hasattr(os, "sched_setaffinity")


@pytest.mark.skipif(not _AFFINITY or len(os.sched_getaffinity(0)) < 2,
                    reason="needs thread affinity and two allowed CPUs")
class TestWorkerCpu:
    """The worker runs on every CPU the caller may use but one, and the
    caller's own mask is never changed."""

    MIX = TestStream.MIX

    def test_the_worker_runs_on_the_callers_cpus_but_one(self, monkeypatch):
        rng = _MaskedGenerator(5)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        caller = os.sched_getaffinity(0)
        sample(self.MIX, SampleSpec(n_samples=2_000_000, seed=5))
        assert len(rng.masks) == 128  # two blocks of 64 leaves
        assert all(mask < caller and len(caller - mask) == 1 for mask in rng.masks)

    @pytest.mark.parametrize("outcome", ["return", "worker error", "failing leaf"])
    def test_the_callers_mask_is_kept(self, monkeypatch, outcome):
        caller = os.sched_getaffinity(0)
        spec = SampleSpec(n_samples=2_000_000, seed=5)
        if outcome == "return":
            sample(self.MIX, spec)
        else:
            if outcome == "worker error":
                rng = _MaskedGenerator(5, 65, MemoryError("the normals"))
                monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
            else:
                monkeypatch.setattr(np, "take", _FailingGather(np.take))
            with pytest.raises((MemoryError, _Failed)):
                sample(self.MIX, spec)
        assert os.sched_getaffinity(0) == caller


@pytest.mark.skipif(not _AFFINITY, reason="needs thread affinity")
class TestWorkerCpuFallbacks:
    """Where the worker cannot be kept off the caller's CPU, it runs where
    the caller may, and every bit is the replay's."""

    MIX, N = TestStream.MIX, TestStream.N
    THRESHOLDS = (0.5, 2.0)

    def _expected(self):
        sums, counts = _replay(self.MIX, self.N, 17, self.THRESHOLDS)
        return sums[:9], counts

    def test_one_allowed_cpu(self):
        # A process held to one CPU: nothing to keep the worker off.
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import json, os\n"
            "from branchvol.branching import ErrorSchedule, GaussianBase, build_mixture\n"
            "from branchvol.montecarlo import SampleSpec, sample\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "mix = build_mixture(GaussianBase(0.3, 1.7), ErrorSchedule.bleed(0.2, 0.9, 6))\n"
            f"s = sample(mix, SampleSpec({self.N}, 17, thresholds={self.THRESHOLDS}))\n"
            "print(json.dumps([[x.hex() for x in s.power_sums],"
            " [[k, c] for k, c in s.exceed_counts.items()]]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        sums, counts = json.loads(out)
        replay, replay_counts = self._expected()
        assert np.array_equal([float.fromhex(x) for x in sums], replay)
        assert dict(counts) == replay_counts

    @pytest.mark.parametrize("missing", ["sched_setaffinity", "/proc"])
    def test_no_affinity_or_no_proc(self, monkeypatch, tmp_path, missing):
        if missing == "sched_setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity")
        else:
            monkeypatch.setattr(montecarlo, "_THREAD_STAT", str(tmp_path / "stat"))
        replay, replay_counts = self._expected()
        rng = _MaskedGenerator(17)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        caller = os.sched_getaffinity(0)
        summary = sample(self.MIX, SampleSpec(self.N, 17, thresholds=self.THRESHOLDS))
        assert np.array_equal(summary.power_sums, replay)
        assert summary.exceed_counts == replay_counts
        assert rng.masks and all(mask == caller for mask in rng.masks)


class TestEstimates:
    def test_constant_stream_has_zero_se(self):
        # Degenerate summary built by hand: every draw equals 3.
        c, n = 3.0, 1000
        summary = MCSummary(
            n=n,
            moment_orders=(1, 2, 4),
            thresholds=(),
            power_sums=np.array([n * c**k for k in range(17)], dtype=float),
            exceed_counts={},
        )
        report = estimate(summary)
        for t in report.targets:
            assert t.estimate == pytest.approx(c**t.key, rel=1e-12)
            assert t.se == 0.0

    def test_gaussian_fourth_moment(self):
        mix = _mix(0.0, 0)
        report = estimate(sample(mix, SampleSpec(n_samples=500_000, seed=9, moment_orders=(4,))))
        (t,) = report.targets
        assert abs(t.estimate - 3.0) < 4.0 * t.se

    def test_mean_recovers_mu(self):
        mix = build_mixture(GaussianBase(0.8, 1.0), ErrorSchedule.constant(0.0, 3))
        report = estimate(sample(mix, SampleSpec(n_samples=200_000, seed=4, moment_orders=(1,))))
        (t,) = report.targets
        assert abs(t.estimate - 0.8) < 4.0 * t.se

    def test_second_moment_against_closed_form(self):
        mix = _mix(0.1, 10)
        report = estimate(
            sample(mix, SampleSpec(n_samples=1_000_000, seed=42, moment_orders=(2,)))
        )
        (t,) = report.targets
        (ref,) = schedule_moments(ErrorSchedule.constant(0.1, 10), [2], 0.0, 1.0, 10)
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_exceedance_against_binomial_form(self):
        mix = _mix(0.1, 5)
        report = estimate(
            sample(
                mix,
                SampleSpec(n_samples=1_000_000, seed=7, moment_orders=(1,), thresholds=(3.0,)),
            )
        )
        t = report.targets[-1]
        ref = exceedance(group_mixture(BASE, 0.1, 5), 3.0)
        assert t.reliable
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_bleed_fourth_moment(self):
        mix = build_mixture(BASE, ErrorSchedule.bleed(0.2, 0.9, 12))
        report = estimate(
            sample(mix, SampleSpec(n_samples=1_000_000, seed=3, moment_orders=(4,)))
        )
        (t,) = report.targets
        (ref,) = schedule_moments(ErrorSchedule.bleed(0.2, 0.9, 12), [4], 0.0, 1.0, 12)
        assert abs(t.estimate - ref) < 4.0 * t.se

    def test_unreliable_targets_flagged(self):
        mix = _mix(0.1, 4)
        report = estimate(
            sample(mix, SampleSpec(n_samples=10_000, seed=5, thresholds=(8.0,)))
        )
        t = report.targets[-1]
        assert not t.reliable

    # Past the double range x^6 and x^8 overflow (and their sums meet
    # inf - inf); below it x^4 is subnormal, or x^2 and up flush to 0.
    @pytest.mark.parametrize("sigma, refused", [
        (1e60, [3.0, 4.0]), (1e-80, [2.0, 3.0, 4.0]), (1e-200, [1.0, 2.0, 3.0, 4.0])])
    def test_powers_out_of_the_double_range_are_refused(self, sigma, refused, capsys):
        rc = cli.main(["validate", "--schedule", "constant:a=0.1,N=4", "--n-samples", "1000",
                       "--sigma", str(sigma)])
        _, rows = parse_table_csv(capsys.readouterr().out)
        moments = [row for row in rows if row[0] == "moment"]
        assert [row[1] for row in moments if not row[6]] == refused
        assert all(row[5] is None and row[7] is None for row in moments if not row[6])
        assert all(row[7] for row in moments if row[6])
        assert rc == 0

    def test_a_constant_sample_passes_on_exact_equality(self, capsys):
        # mu + 1e-20 z rounds to 1.0 for every draw: SE 0, estimate = reference.
        rc = cli.main(["validate", "--schedule", "constant:a=0.1,N=4", "--n-samples", "1000",
                       "--mu", "1", "--sigma", "1e-20"])
        _, rows = parse_table_csv(capsys.readouterr().out)
        moments = [row for row in rows if row[0] == "moment"]
        assert [row[2:] for row in moments] == [[1.0, 0.0, 1.0, 0.0, True, True]] * 4
        assert rc == 0

    def test_minimum_sample_size(self):
        mix = _mix(0.1, 2)
        with pytest.raises(ValueError):
            estimate(sample(mix, SampleSpec(n_samples=10, seed=1)))


class TestBranchUniformity:
    def test_counts_within_five_se(self):
        for n in (4, 8):
            mix = _mix(0.1, n)
            summary = sample(mix, SampleSpec(n_samples=1_000_000, seed=31))
            # The sampler draws the seed's branch indices first; replay them.
            assert np.array_equal(summary.power_sums, _replay(mix, summary.n, 31)[0][:9])
            idx = np.random.default_rng(31).integers(0, mix.n_components, size=summary.n)
            counts = np.bincount(idx, minlength=mix.n_components)
            p = 2.0**-n
            se = math.sqrt(p * (1 - p) * summary.n)
            expected = summary.n * p
            assert np.all(np.abs(counts - expected) < 5.0 * se)


class TestWeightedMixtures:
    def test_unequal_weights_are_refused(self):
        with pytest.raises(ValueError, match="equal"):
            sample(group_mixture(BASE, 0.1, 5), SampleSpec(n_samples=100, seed=0))

    def test_many_classes_are_refused_before_any_is_formed(self):
        # 10^9 + 1 classes would take 8 GB a class array.
        mix = group_mixture(BASE, 0.1, 10**9)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="equal"):
            sample(mix, SampleSpec(n_samples=100, seed=0))
        assert time.perf_counter() - start < 1.0
        assert "log_weights" not in vars(mix)

    def test_equal_weight_classes_are_sampled(self):
        # Depth 1 has two classes of weight 1/2 each.
        summary = sample(group_mixture(BASE, 0.1, 1), SampleSpec(n_samples=100, seed=0))
        assert summary.n == 100


class TestChecks:
    def test_pass_fail_and_refusal(self):
        report_targets = (
            TargetEstimate("moment", 2.0, 1.0, 0.01, True),
            TargetEstimate("moment", 4.0, 3.5, 0.01, True),
            TargetEstimate("exceedance", 6.0, 0.0, 0.0, False),
        )
        report = type(
            "R", (), {"targets": report_targets, "n": 100}
        )()
        refs = {
            ("moment", 2.0): 1.02,
            ("moment", 4.0): 3.0,
            ("exceedance", 6.0): 1e-9,
        }
        checks = check_report(report, refs)
        assert checks[0].passed is True
        assert checks[1].passed is False
        assert checks[2].passed is None and checks[2].z is None


class TestSpecValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            SampleSpec(n_samples=0, seed=1)
        with pytest.raises(ValueError):
            SampleSpec(n_samples=10, seed=-1)
        with pytest.raises(ValueError):
            SampleSpec(n_samples=10, seed=1, moment_orders=(9,))

    @pytest.mark.parametrize("n_samples, seed", [(True, 1), (10, False), (True, False)])
    def test_bools_are_refused(self, n_samples, seed):
        with pytest.raises(ValueError, match="n_samples" if n_samples is True else "seed"):
            SampleSpec(n_samples=n_samples, seed=seed)
