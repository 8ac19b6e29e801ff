"""Command-line surface: outputs, round trips, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, log_ndtr

import branchvol
from branchvol import cli, closedform, mixstats
from branchvol._checks import LN_MAX
from branchvol.branching import (
    MAX_ENUMERATION_DEPTH,
    ErrorSchedule,
    GaussianBase,
    ScaleExpansion,
    group_mixture,
)
from branchvol.closedform import schedule_moments
from branchvol.mixstats import convexity_ratio, exceedance
from cli_tables import parse_table_csv, parse_table_json


def run_cli(*argv, capsys=None):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out if capsys is not None else None
    return rc, out


def count_calls(monkeypatch, owner, name):
    # Replaces owner.name by a wrapper; returns the list of its calls.
    calls, inner = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def schedule_argvs(schedule):
    # Every command that takes --schedule, with the other flags it needs.
    return [[command, "--schedule", schedule] + TestFlagSurface.VALID[command][2:]
            for command in ("density", "exceed", "moments", "loglog", "validate")]


class TestDensityCommand:
    def test_grid_row_count_and_peak(self, tmp_path):
        out = tmp_path / "density.csv"
        rc = cli.main(
            [
                "density",
                "--mu", "0", "--sigma", "1",
                "--schedule", "constant:a=0.1,N=5",
                "--x=-4:4:0.05",
                "--out", str(out),
            ]
        )
        assert rc == 0
        columns, rows = parse_table_csv(out.read_text())
        assert columns == ["x", "f_N5"]
        assert len(rows) == 161
        mid = rows[80]
        assert mid[0] == 0.0
        assert mid[1] > 0.39894228040143268  # above the plain Gaussian peak

    def test_space_separated_negative_grid(self, capsys):
        # The documented flag shape: a space before a grid starting with "-".
        rc, out = run_cli(
            "density", "--mu", "0", "--sigma", "1",
            "--schedule", "constant:a=0.1,N=5",
            "--x", "-4:4:0.05",
            capsys=capsys,
        )
        assert rc == 0
        _, rows = parse_table_csv(out)
        assert len(rows) == 161

    def test_depth_zero_peak_value(self, capsys):
        rc, out = run_cli(
            "density", "--schedule", "constant:a=0.1,N=0", "--x=0:1:0.5",
            capsys=capsys,
        )
        assert rc == 0
        _, rows = parse_table_csv(out)
        assert math.isclose(rows[0][1], 0.39894228040143268, rel_tol=1e-12)

    def test_overlay_peaks_increase_with_depth(self, capsys):
        rc, out = run_cli(
            "density",
            "--schedule", "constant:a=0.1,N=5",
            "--n-list", "0,5,10,25",
            "--x=-1:1:0.5",
            capsys=capsys,
        )
        assert rc == 0
        columns, rows = parse_table_csv(out)
        assert columns == ["x", "f_N0", "f_N5", "f_N10", "f_N25"]
        peak = next(r for r in rows if r[0] == 0.0)
        assert peak[1] < peak[2] < peak[3] < peak[4]

    def test_non_constant_schedule_uses_enumeration(self, capsys):
        rc, out = run_cli(
            "density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=4", "--x=0:1:1",
            capsys=capsys,
        )
        assert rc == 0


class TestExceedCommand:
    def test_values_match_library(self, capsys):
        rc, out = run_cli(
            "exceed",
            "--schedule", "constant:a=0.1,N=8",
            "--k", "3,5",
            capsys=capsys,
        )
        assert rc == 0
        _, rows = parse_table_csv(out)
        base = GaussianBase(0.0, 1.0)
        for row, k in zip(rows, (3.0, 5.0)):
            assert row[0] == 8 and row[1] == k
            assert math.isclose(row[2], exceedance(group_mixture(base, 0.1, 8), k), rel_tol=1e-9)
            assert math.isclose(row[3], math.log(row[2]), rel_tol=1e-9)


def test_scales_that_round_to_zero_agree_with_the_grouped_form(capsys):
    # 1 - a is 2^-53, so 2325 of the 2^24 enumerated scales round to 0:
    # each has tail 1/2 at k = mu, and density 0 off mu and inf at it.
    rates = ",".join(["0.9999999999999999"] * 24)
    for argv in (["exceed", "--k", "0,0.5"], ["density", "--x=-1:1:1"]):
        tables = []
        for schedule in (f"explicit:{rates}", "constant:a=0.9999999999999999,N=24"):
            rc, out = run_cli(*argv, "--schedule", schedule, capsys=capsys)
            assert rc == 0
            tables.append(parse_table_csv(out)[1])
        enumerated, grouped = tables
        for row, other in zip(enumerated, grouped, strict=True):
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(row, other))
    assert enumerated[1] == [0.0, math.inf]


class TestRatioTableCommand:
    def test_default_reproduces_both_tables(self, capsys):
        rc, out = run_cli("ratio-table", capsys=capsys)
        assert rc == 0
        columns, rows = parse_table_csv(out)
        assert columns == ["a", "N", "K3", "K5", "K10"]
        assert len(rows) == 10
        cells = {(r[0], r[1]): r for r in rows}
        base = GaussianBase(0.0, 1.0)
        assert math.isclose(
            cells[(0.01, 25)][4], convexity_ratio(group_mixture(base, 0.01, 25), 10.0), rel_tol=1e-9
        )
        # Spot values, frozen from exact binomial sums.
        assert math.isclose(cells[(0.01, 20)][3], 1.7200527903053911, rel_tol=1e-6)
        assert math.isclose(cells[(0.1, 25)][4], 3.6234200602639237e18, rel_tol=1e-6)

    def test_depth_zero_rows_are_one(self, capsys):
        rc, out = run_cli("ratio-table", "--a", "0.07", "--n-list", "0", capsys=capsys)
        assert rc == 0
        _, rows = parse_table_csv(out)
        assert rows[0][2:] == [1.0, 1.0, 1.0]

    def test_a_ratio_past_the_double_range_prints_inf(self, capsys):
        # ln of the ratio is 779 at k = 40 and 3158 at k = 80: the table
        # keeps its finite cells and prints inf for these.
        rc, out = run_cli("ratio-table", "--a", "0.1", "--n-list", "25", "--k-list", "30,40,80",
                          capsys=capsys)
        assert rc == 0
        assert out.splitlines()[1].split(",")[3:] == ["inf", "inf"]
        _, rows = parse_table_csv(out)
        assert math.isclose(rows[0][2], math.exp(432.9487283615693), rel_tol=1e-12)


    def test_base_tails_are_taken_once_per_command(self, monkeypatch, capsys):
        # Every row shares the depth-0 Gaussian: one base evaluation, not
        # one per (a, N) row (ten of the default table's twenty calls).
        calls = count_calls(monkeypatch, mixstats, "log_exceedance")
        rc, out = run_cli("ratio-table", capsys=capsys)
        assert rc == 0 and len(parse_table_csv(out)[1]) == 10
        base_calls = [args for args in calls if args[0].n_components == 1]
        assert len(calls) == 11 and len(base_calls) == 1
        assert base_calls[0][1] == [3.0, 5.0, 10.0]

    def test_a_given_base_keeps_every_bit(self):
        ks = np.array([-1.0, 0.0, 3.0, 10.0, 40.0])
        for base in (GaussianBase(0.0, 1.0), GaussianBase(-0.3, 2.5)):
            base_log_p = mixstats.log_exceedance(group_mixture(base, 0.0, 0), ks)
            for a, n in ((0.01, 5), (0.1, 25), (0.2, 400)):
                mixture = group_mixture(base, a, n)
                given = convexity_ratio(mixture, ks, base_log_p=base_log_p)
                assert given.tolist() == convexity_ratio(mixture, ks).tolist()


class TestMomentsCommand:
    def test_constant_schedule_closed_vs_enumeration(self, capsys):
        rc, out = run_cli(
            "moments", "--schedule", "constant:a=0.1,N=8", "--orders", "2,4",
            capsys=capsys,
        )
        assert rc == 0
        columns, rows = parse_table_csv(out)
        assert columns == ["order", "closed_form", "enumeration", "rel_diff", "limit_inf"]
        for row in rows:
            assert row[3] < 1e-12

    def test_bleed_limit_column(self, capsys):
        rc, out = run_cli(
            "moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=6", "--orders", "2,4",
            capsys=capsys,
        )
        assert rc == 0
        _, rows = parse_table_csv(out)
        limits = {int(r[0]): r[4] for r in rows}
        (m4,) = schedule_moments(ErrorSchedule.bleed(0.2, 0.9, 6), [4], 0.0, 1.0, cli.INFINITY)
        assert math.isclose(limits[4], m4, rel_tol=1e-12)
        assert math.isclose(limits[4], 9.88, rel_tol=5e-3)

    def test_additive_schedule_partial_closed_forms(self, capsys):
        rc, out = run_cli(
            "moments", "--schedule", "geometric:a=0.1,N=6", "--orders", "1,2,3,4",
            capsys=capsys,
        )
        assert rc == 0
        _, rows = parse_table_csv(out)
        by_order = {int(r[0]): r for r in rows}
        assert by_order[3][1] is None  # no additive closed form at order 3
        assert by_order[3][2] is not None  # enumeration still reported
        assert by_order[2][3] < 1e-12

    @staticmethod
    def _rows(capsys, schedule, orders="1,2,4", *flags):
        rc, out = run_cli("moments", "--schedule", schedule, "--orders", orders, *flags,
                          capsys=capsys)
        assert rc == 0
        return {int(r[0]): r for r in parse_table_csv(out)[1]}

    @staticmethod
    def _powers(a, n):
        # The explicit spelling of geometric:a=<a>,N=<n>.
        return "explicit:" + ",".join(repr(a**j) for j in range(1, n + 1)) + ";mode=additive"

    def test_additive_explicit_list_matches_the_geometric_schedule(self, capsys):
        explicit = self._rows(capsys, self._powers(0.2, 5))
        geometric = self._rows(capsys, "geometric:a=0.2,N=5")
        wants = schedule_moments(ErrorSchedule.geometric(0.2, 5), (1, 2, 4), 0.0, 1.0,
                                 cli.INFINITY)
        for order, want in zip((1, 2, 4), wants):
            closed, enum, _, limit = explicit[order][1:]
            assert math.isclose(closed, enum, rel_tol=1e-12, abs_tol=1e-300)
            assert geometric[order][1:3] == [closed, enum]
            assert limit is None  # an explicit list ends
            assert math.isclose(geometric[order][4], want, rel_tol=1e-12, abs_tol=1e-300)

    @pytest.mark.parametrize("schedule", ["constant:a=0.1,N={};mode=additive",
                                          "bleed:a1=0.3,lambda=0.9,N={};mode=additive",
                                          "bleed:a1=0.9999999999999999,lambda=0.9999999999999998,"
                                          "N={};mode=additive"])
    def test_additive_rule_holds_past_the_enumeration_depth(self, schedule, capsys):
        # The suffix belongs to explicit lists: on a rate formula every
        # command refuses it at parse, at every depth, in the same words.
        errors = set()
        for n in (5, 20, 30, 10**9):
            for argv in schedule_argvs(schedule.format(n)):
                started = time.perf_counter()
                assert cli.main(argv) == 2
                assert time.perf_counter() - started < 1.0
                captured = capsys.readouterr()
                assert captured.out == ""
                errors.add(captured.err)
        assert errors == {"error: mode=additive applies only to explicit: lists; the additive "
                          "regime a, a^2, ..., a^N is geometric:a=<r>,N=<n>\n"}

    def test_additive_power_sequence_past_the_enumeration_depth(self, capsys):
        explicit = self._rows(capsys, self._powers(0.3, 30))
        geometric = self._rows(capsys, "geometric:a=0.3,N=30")
        for order in (1, 2, 4):
            assert explicit[order][1:4] == geometric[order][1:4]
            assert explicit[order][2] is None and explicit[order][4] is None
        assert math.isclose(explicit[2][1], 1.098901098901, rel_tol=1e-12)

    def test_closed_forms_reach_the_largest_double(self, capsys):
        # (1 + 0.1^2)^71304 is 1.3528080...e308 (50-digit mpmath): finite,
        # though its log passes 709.
        rc, out = run_cli("moments", "--schedule", "constant:a=0.1,N=71304", "--orders", "2",
                          capsys=capsys)
        assert rc == 0
        assert out == "order,closed_form,enumeration,rel_diff,limit_inf\n2,1.352808108070e+308,,,\n"

    @pytest.mark.parametrize("schedule, reads", [
        ("bleed:a1=0.2,lambda=0.9,N=1000", 0), ("constant:a=0.1,N=1000", 0),
        ("geometric:a=0.1,N=1000", 0), ("bleed:a1=0.2,lambda=0.9,N=12", 1),
        ("constant:a=0.1,N=12", 1), ("geometric:a=0.1,N=12", 1),
        ("explicit:0.3,0.2,0.1", 1)])
    def test_rates_are_read_only_to_enumerate(self, schedule, reads, monkeypatch, capsys):
        # The closed forms need only the rule, or a list's own rates; the
        # enumeration reads the rates once.
        calls, rates = [], ErrorSchedule.rates
        monkeypatch.setattr(ErrorSchedule, "rates",
                            property(lambda s: calls.append(s) or rates.fget(s)))
        rows = self._rows(capsys, schedule, "1,2,3,4,5,6,7,8")
        assert len(calls) == reads
        assert all(rows[k][1] is not None for k in (1, 2, 4))

    @pytest.mark.parametrize("mu", ["0", "0.05"])
    @pytest.mark.parametrize("schedule, ms", [
        ("bleed:a1=0.2,lambda=0.9,N=1000", [2, 4, 6, 8, 2, 4]),
        ("bleed:a1=0.2,lambda=0.9,N=12", [2, 4, 6, 8, 2, 4]),
        ("explicit:0.3,0.2,0.1", [2, 4, 6, 8])])
    def test_each_closed_scale_moment_is_taken_once(self, schedule, ms, mu, monkeypatch, capsys):
        # Orders 1-8 read E[S^m] at depth N for m = 2, 4, 6, 8, and in the
        # bleed limit for m = 2, 4. Taken order by order at mu = 0.05, that
        # was 16 + 3 layer products.
        products = count_calls(monkeypatch, closedform, "_layer_product")
        rows = self._rows(capsys, schedule, "1,2,3,4,5,6,7,8", f"--mu={mu}")
        assert all(r[1] is not None for r in rows.values())
        assert [args[0] for args in products] == ms

    @pytest.mark.parametrize("mu", ["0", "0.05"])
    def test_scale_moments_take_one_pass_and_build_nothing(self, mu, monkeypatch, capsys):
        # At mu = 0.05, orders 1-8 read E[S^m] for m = 2, 4, 6, 8 sixteen
        # times over; one streamed pass sums all four.
        passes = count_calls(monkeypatch, mixstats, "_mean_scale_powers")
        builds = count_calls(monkeypatch, ScaleExpansion, "build")
        rc, out = run_cli("moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=15",
                          f"--mu={mu}", capsys=capsys)
        assert rc == 0 and len(parse_table_csv(out)[1]) == 8
        assert len(passes) == 1 and len(builds) == 0
        assert passes[0][1] == [2, 4, 6, 8]

    @pytest.mark.parametrize("order", ["9", "0", "-1"])
    @pytest.mark.parametrize("schedule", ["geometric:a=0.1,N=10", "geometric:a=0.1,N=30",
                                          "bleed:a1=0.2,lambda=0.9,N=30",
                                          "constant:a=0.1,N=10"])
    def test_orders_outside_one_to_eight_exit_three(self, schedule, order, capsys):
        # One range for every schedule and depth, checked before any build:
        # past depth 24 no enumeration checked the order, and additive
        # closed forms printed an empty row for it.
        assert cli.main(["moments", "--schedule", schedule, f"--orders={order}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: moment order {order} outside supported range 1..8\n"

    @pytest.mark.parametrize("schedule", ["bleed:a1=0.2,lambda=1,N=5",
                                          "bleed:a1=0.2,lambda=1.5,N=3"])
    def test_bleed_without_a_limit_still_reports_moments(self, schedule, capsys):
        rows = self._rows(capsys, schedule, "2,4,6")
        for closed, enum, rel, limit in (r[1:] for r in rows.values()):
            assert rel < 1e-12 and math.isclose(closed, enum, rel_tol=1e-12)
            assert limit is None

    @pytest.mark.parametrize("schedule", ["geometric:a=0.5,N=10", "geometric:a=0.6,N=1"])
    def test_geometric_without_a_limit_still_reports_moments(self, schedule, capsys):
        # The offsets a + a^2 + ... reach 1 at N = INFINITY for a >= 1/2, but
        # not at these depths: the limit is blank and the rest is printed.
        rows = self._rows(capsys, schedule, "2,4")
        for closed, enum, rel, limit in (r[1:] for r in rows.values()):
            assert rel < 1e-12 and math.isclose(closed, enum, rel_tol=1e-12)
            assert limit is None
        if schedule.endswith("N=10"):
            assert math.isclose(rows[2][1], 1.3333330154418945, rel_tol=1e-12)

    def test_bleed_limits_at_a_nonzero_location(self, capsys):
        # At mu = 1 each order mixes E[S^2] and E[S^4]; the limits are the
        # closed forms at a depth where the factors have converged.
        def rows(n):
            rc, out = run_cli("moments", "--schedule", f"bleed:a1=0.2,lambda=0.9,N={n}",
                              "--mu", "1", capsys=capsys)
            assert rc == 0
            return parse_table_csv(out)[1]

        limits = [(r[0], r[4]) for r in rows(10) if r[4] is not None]
        deep = {r[0]: r[1] for r in rows(400)}
        assert [order for order, _ in limits] == [2, 4]
        for order, limit in limits:
            assert math.isclose(limit, deep[order], rel_tol=1e-13), order

    def test_limit_stops_once_the_product_overflows(self, monkeypatch, capsys):
        # At lambda = 1 - 1e-7 the order-2 product leaves the double range
        # after about 18000 layers and the order-4 one after about 3300,
        # long before its rates fade (about 1.6e8 layers).
        factors = count_calls(monkeypatch, closedform, "_h_minus_one")
        started = time.perf_counter()
        rows = self._rows(capsys, "bleed:a1=0.2,lambda=0.9999999,N=5", "2,4")
        assert time.perf_counter() - started < 5.0
        assert [r[4] for r in rows.values()] == [math.inf, math.inf]
        assert len(factors) < 10**5


class TestLogLogCommand:
    def test_slope_columns(self, capsys):
        rc, out = run_cli(
            "loglog",
            "--schedule", "constant:a=0.1,N=50",
            "--n-list", "0,50",
            "--x", "2:8:25",
            capsys=capsys,
        )
        assert rc == 0
        columns, rows = parse_table_csv(out)
        assert columns == ["N", "x", "ln_x", "ln_p", "local_slope"]
        n0 = [r for r in rows if r[0] == 0]
        n50 = [r for r in rows if r[0] == 50]
        assert len(n0) == len(n50) == 25
        # Depth-0 Gaussian slopes steepen monotonically.
        slopes0 = [r[4] for r in n0]
        assert all(a > b for a, b in zip(slopes0, slopes0[1:]))
        # At the same x the depth-50 curve is flatter.
        i = min(range(25), key=lambda j: abs(n0[j][1] - 6.0))
        assert abs(n50[i][4]) < abs(n0[i][4])


class TestValidateCommand:
    def test_passes_and_self_test_fails(self, tmp_path):
        args = [
            "validate",
            "--schedule", "constant:a=0.1,N=8",
            "--n-samples", "200000",
            "--seed", "42",
            "--format", "json",
            "--out", str(tmp_path / "v.json"),
        ]
        assert cli.main(args) == 0
        columns, rows = parse_table_json((tmp_path / "v.json").read_text())
        assert columns == ["kind", "key", "estimate", "se", "reference", "z", "reliable", "passed"]
        assert all(r[7] for r in rows)
        assert cli.main(args + ["--self-test"]) == 1

    def test_the_scales_are_built_once(self, monkeypatch, capsys):
        # Sampling gathers from the array; the references read its slices.
        passes = count_calls(monkeypatch, mixstats, "_mean_scale_powers")
        builds = count_calls(monkeypatch, ScaleExpansion, "build")
        blocks = count_calls(monkeypatch, ScaleExpansion, "blocks")
        rc, _ = run_cli("validate", "--schedule", "bleed:a1=0.2,lambda=0.9,N=15", "--mu=0.05",
                        "--n-samples", "2000", "--orders", "1,2,3,4", capsys=capsys)
        assert rc in (0, 1)
        assert (len(builds), len(passes), len(blocks)) == (1, 1, 0)

    @pytest.mark.parametrize("order", ["9", "0", "-1"])
    def test_orders_outside_one_to_eight_exit_three(self, order, monkeypatch, capsys):
        # One range for every order, as in moments, checked before any build.
        builds = count_calls(monkeypatch, cli, "build_mixture")
        assert cli.main(["validate", "--schedule", "constant:a=0.1,N=3",
                         "--n-samples", "1000", f"--orders={order}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and builds == []
        assert captured.err == f"error: moment order {order} outside supported range 1..8\n"

    @pytest.mark.parametrize("flags, err", [
        (["--n-samples", "10"], "need at least 30 samples to estimate, got 10"),
        (["--n-samples", "0"], "n_samples must be a positive integer, got 0"),
        (["--seed=-1"], "seed must be a nonnegative integer, got -1"),
    ])
    def test_the_sample_spec_is_checked_before_any_build(self, flags, err, monkeypatch,
                                                          capsys):
        # N = 22 would build 2^22 scales and their references before sampling.
        builds = count_calls(monkeypatch, cli, "build_mixture")
        assert cli.main(["validate", "--schedule", "constant:a=0.1,N=22", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and builds == []
        assert captured.err == f"error: {err}\n"

    def test_seed_changes_output(self, capsys):
        base_args = (
            "validate", "--schedule", "constant:a=0.1,N=4", "--n-samples", "50000",
        )
        rc1, out1 = run_cli(*base_args, "--seed", "1", capsys=capsys)
        rc2, out2 = run_cli(*base_args, "--seed", "2", capsys=capsys)
        assert rc1 == rc2 == 0
        assert out1 != out2


class TestOneExpansionPerMixture:
    """Each command expands each enumerated mixture once: one stream of
    blocks, or, for validate, which samples from the array, one build."""

    BLEED = "bleed:a1=0.2,lambda=0.9,N=15"

    @pytest.mark.parametrize("argv, streams", [
        (["exceed", "--schedule", BLEED, "--k", "3,10,50", "--n-list", "9,15"], 1),
        (["loglog", "--schedule", BLEED, "--x", "2:10:5", "--n-list", "9,15"], 1),
        (["density", "--schedule", BLEED, "--x=-4:4:0.5", "--n-list", "9,15"], 1),
        (["moments", "--schedule", BLEED, "--mu=0.05"], 1),
        (["validate", "--schedule", "constant:a=0.1,N=8", "--n-samples", "2000"], 0),
    ], ids=["exceed", "loglog", "density", "moments", "validate"])
    def test_each_mixture_is_expanded_once(self, argv, streams, monkeypatch, capsys):
        mixtures = []
        build_mixture = cli.build_mixture

        def kept(*args):
            mixtures.append(build_mixture(*args))
            return mixtures[-1]

        monkeypatch.setattr(cli, "build_mixture", kept)
        blocks = count_calls(monkeypatch, ScaleExpansion, "blocks")
        builds = count_calls(monkeypatch, ScaleExpansion, "build")
        assert cli.main(argv) in (0, 1)
        capsys.readouterr()
        assert mixtures
        for mix in mixtures:
            assert sum(args[0] is mix.expansion for args in blocks) == streams
            assert sum(args[0] is mix.expansion for args in builds) == 1 - streams
        assert len(blocks) == streams * len(mixtures)
        assert len(builds) == (1 - streams) * len(mixtures)


class TestOutputContract:
    def test_byte_identical_reruns(self, tmp_path):
        for cmd in (
            ["density", "--schedule", "constant:a=0.1,N=4", "--x=-2:2:0.25"],
            ["ratio-table", "--a", "0.1", "--n-list", "5,10"],
            ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=5"],
            ["loglog", "--schedule", "constant:a=0.1,N=5", "--x", "2:8:12"],
            ["validate", "--schedule", "constant:a=0.1,N=3", "--n-samples", "5000",
             "--seed", "7"],
        ):
            paths = [tmp_path / "a.out", tmp_path / "b.out"]
            for p in paths:
                assert cli.main(cmd + ["--out", str(p)]) in (0, 1)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_self_parse_all_commands(self, tmp_path):
        for cmd in (
            ["density", "--schedule", "constant:a=0.1,N=4", "--x=-2:2:1"],
            ["exceed", "--schedule", "constant:a=0.1,N=4", "--k", "3"],
            ["ratio-table", "--a", "0.1", "--n-list", "5"],
            ["moments", "--schedule", "constant:a=0.1,N=4", "--orders", "2"],
            ["loglog", "--schedule", "constant:a=0.1,N=4", "--x", "2:6:5"],
            ["validate", "--schedule", "constant:a=0.1,N=3", "--n-samples", "2000",
             "--seed", "3"],
        ):
            p = tmp_path / "t.json"
            assert cli.main(cmd + ["--format", "json", "--out", str(p)]) in (0, 1)
            columns, rows = parse_table_json(p.read_text())
            assert columns and rows
            payload = json.loads(p.read_text())
            assert payload["schema_version"] == 1

    def test_json_carries_non_finite_cells_as_csv_tokens(self, capsys):
        # RFC 8259 has no Infinity or NaN; parse_table_json reads the tokens back.
        def refuse(token):
            raise ValueError(f"bare {token} in the JSON")

        argv = ["ratio-table", "--a", "0.1", "--n-list", "25", "--k-list", "40,80"]
        rc, text = run_cli(*argv, "--format", "json", capsys=capsys)
        assert rc == 0
        assert json.loads(text, parse_constant=refuse)["rows"] == [[0.1, 25, "inf", "inf"]]
        assert parse_table_json(text) == (["a", "N", "K40", "K80"],
                                              [[0.1, 25, math.inf, math.inf]])
        args = argparse.Namespace(format="json", out=None)
        cli._emit(args, "t", ["a", "b", "c", "d"], [[-math.inf, math.nan, 1.5, "nan-free"]])
        text = capsys.readouterr().out
        assert json.loads(text, parse_constant=refuse)["rows"] == [["-inf", "nan", 1.5,
                                                                    "nan-free"]]
        (row,) = parse_table_json(text)[1]
        assert row[0] == -math.inf and math.isnan(row[1]) and row[2:] == [1.5, "nan-free"]

    def test_shared_parser_leaks_nothing_between_calls(self, capsys):
        # The parser is built once per process; a failed parse or --help in
        # between must not change what later calls print.
        readme = [
            ["density", "--schedule", "constant:a=0.1,N=5", "--n-list", "0,5,10,25,50",
             "--x=-4:4:0.05"],
            ["exceed", "--schedule", "constant:a=0.1,N=8", "--k", "3,5,10"],
            ["ratio-table"],
            ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=10", "--orders", "2,4"],
            ["loglog", "--schedule", "constant:a=0.1,N=50", "--n-list", "0,5,10,25,50",
             "--x", "2:10:120"],
            ["validate", "--schedule", "constant:a=0.1,N=8", "--n-samples", "1000000",
             "--seed", "42"],
        ]
        first = [run_cli(*argv, capsys=capsys) for argv in readme]
        assert cli.main(["exceed", "--schedule", "constant:a=0.1,N=8", "--k", "3",
                         "--no-such-flag"]) == 2
        assert cli.main(["exceed", "--schedule", "nope:a=1", "--k", "3"]) == 2
        assert cli.main(["density", "--help"]) == 0
        capsys.readouterr()
        second = [run_cli(*argv, capsys=capsys) for argv in reversed(readme)]
        assert all(rc == 0 for rc, _ in first)
        assert first == second[::-1]

    def test_csv_number_format(self):
        assert cli._format_value(0.0) == "0"
        assert cli._format_value(1.5) == "1.5"
        assert cli._format_value(123456.789) == "123456.789"
        assert cli._format_value(1e-5) == "0.00001"
        # Scientific notation kicks in at |exponent| >= 6.
        assert "e" in cli._format_value(1.2e6)
        assert "e" in cli._format_value(3.4e-7)
        assert cli._format_value(True) == "true"
        assert cli._format_value(None) == ""
        assert cli._format_value(7) == "7"


class TestExitCodes:
    def test_config_errors_exit_two(self, capsys):
        assert cli.main(["density", "--schedule", "nope:a=1", "--x=0:1:1"]) == 2
        assert cli.main(["density", "--schedule", "constant:a=0.1,N=2", "--x", "bad"]) == 2
        assert cli.main(["exceed", "--schedule", "explicit:0.1,0.2", "--k", "3",
                         "--n-list", "4"]) == 2
        capsys.readouterr()

    def test_domain_errors_exit_three(self, capsys):
        assert cli.main(["density", "--sigma", "-1",
                         "--schedule", "constant:a=0.1,N=2", "--x=0:1:1"]) == 3
        assert cli.main(["density", "--schedule", "constant:a=1.5,N=2", "--x=0:1:1"]) == 3
        assert cli.main(["density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=30",
                         "--x=0:1:1"]) == 3
        capsys.readouterr()

    def test_negative_depth_exits_three(self, capsys):
        assert cli.main(["exceed", "--schedule", "bleed:a1=0.2,lambda=0.9,N=-3",
                         "--k", "3"]) == 3
        assert cli.main(["validate", "--schedule", "geometric:a=0.2,N=-2",
                         "--n-samples", "1000"]) == 3
        assert capsys.readouterr().out == ""

    def test_argparse_errors_exit_two(self, capsys):
        assert cli.main(["density", "--no-such-flag"]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()

    # The last grid is finite but has more points than a double can count.
    @pytest.mark.parametrize("grid", ["-4:inf:1", "-inf:4:1", "-4:4:inf", "nan:4:1",
                                      "-4:1e308:0.05"])
    def test_non_finite_grid_exits_two(self, grid, capsys):
        assert cli.main(["density", "--schedule", "constant:a=0.1,N=5", f"--x={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("x", ["2:inf:5", "2:nan:5", "inf:8:5", "2:-inf:5"])
    def test_non_finite_loglog_range_exits_two(self, x, capsys):
        assert cli.main(["loglog", "--schedule", "constant:a=0.1,N=5", f"--x={x}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv, err", [
        (["moments", "--schedule", "constant:a=0.1,N=5", "--sigma", "1e200"],
         "sigma^2 with sigma = 1e+200"),
        (["moments", "--schedule", "constant:a=0.1,N=4", "--mu=1e200"],
         "mu^2 with mu = 1e+200"),
        (["moments", "--schedule", "geometric:a=0.2,N=5", "--mu=1e200", "--orders", "4"],
         "mu^4 with mu = 1e+200"),
        (["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=30", "--sigma=1e200",
          "--orders", "4"], "sigma^4 with sigma = 1e+200"),
        (["validate", "--schedule", "constant:a=0.1,N=4", "--mu=1e200",
          "--n-samples", "1000"], "mu^2 with mu = 1e+200")])
    def test_moment_past_the_double_range_exits_three(self, argv, err, capsys):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: result outside the double range: {err}\n"

    def test_a_threshold_distance_past_the_double_range_leaks_no_warning(self, capsys):
        # The grid hands each x to the tails as a float64, and x - mu
        # overflows: every ln P is -inf, and the slope window says so.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["loglog", "--schedule", "constant:a=0.1,N=10",
                           "--x", "1e307:1e308:5", "--mu=-1e308"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: slope window contains non-finite ln P values\n"

    @pytest.mark.parametrize("argv", [
        ["moments", "--schedule", "bleed:a1=1e-300,lambda=1.5,N=3000", "--orders", "2"],
        ["exceed", "--schedule", "bleed:a1=1e-300,lambda=1.5,N=3000", "--k", "3"]])
    def test_overflowing_schedule_names_its_first_rate_at_one(self, argv, capsys):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate a(1705) must lie in [0, 1), got 1.1468468627276653\n"

    @pytest.mark.parametrize("schedule", ["constant:a={},N={}", "geometric:a={},N={}",
                                          "bleed:a1={},lambda=0.9,N={}"])
    def test_a_bad_first_rate_reads_alike_everywhere(self, schedule, capsys):
        errors = set()
        for n in (0, 5, 30):
            for argv in schedule_argvs(schedule.format(1.5, n)):
                assert cli.main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                errors.add(captured.err)
        assert errors == {"error: rate a(1) must lie in [0, 1), got 1.5\n"}

    def test_explicit_additive_errors_do_not_change_at_the_enumeration_depth(self, capsys):
        # Rate 2 breaks the power rule, but the rate range is checked first
        # at 24 rates (enumerated) and at 25 (closed forms only) alike.
        for n in (MAX_ENUMERATION_DEPTH, MAX_ENUMERATION_DEPTH + 1):
            for argv in schedule_argvs("explicit:" + "0.5," * (n - 1) + "1.5;mode=additive"):
                assert cli.main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: rate a({n}) must lie in [0, 1), got 1.5\n"

    def test_out_of_memory_exits_three(self, monkeypatch, capsys):
        # A step of 1e-9 asks linspace for 8e9 points; fake its failure.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 59.6 GiB")

        monkeypatch.setattr(cli.np, "linspace", no_memory)
        assert cli.main(["density", "--schedule", "constant:a=0.1,N=5",
                         "--x=-4:4:1e-9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 59.6 GiB\n"


def _mp_grouped_log_tail(a: float, n: int, k: float) -> mpmath.mpf:
    # ln P(X > k) for the depth-n constant-rate mixture on mu = 0, sigma = 1:
    # a 50-digit mpmath sum over the classes within 80 nats of the largest
    # term, as tools/grouped_reference.py sums them. The term is concave in
    # the class, so doubles find its peak on a coarse grid of classes, then
    # pick the classes around it.
    def estimate(j):
        log_s = j * math.log1p(a) + (n - j) * math.log1p(-a)
        with np.errstate(over="ignore"):
            z = k * np.exp(-log_s)
        return gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) + log_ndtr(-z)

    coarse = np.linspace(0.0, n, 100_001).round()
    peak = coarse[int(np.argmax(estimate(coarse)))]
    j = np.arange(max(0.0, peak - 50_000), min(n, peak + 50_000) + 1)
    est = estimate(j)
    keep = j[est > est.max() - 81.0]
    assert keep[0] > j[0] and keep[-1] < j[-1], "the classes run past the search"
    with mpmath.workdps(50):
        ma, mk = mpmath.mpf(a), mpmath.mpf(k)
        up, down = mpmath.log1p(ma), mpmath.log1p(-ma)
        logs = [mpmath.log(mpmath.binomial(n, i)) - n * mpmath.log(2)
                + mpmath.log(mpmath.erfc(mk / (mpmath.exp(i * up + (n - i) * down)
                                                * mpmath.sqrt(2))) / 2)
                for i in map(int, keep.tolist())]
        top = max(logs)
        return top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in logs))


class TestDeepSchedules:
    """A schedule is checked as its rule: no depth costs memory before the
    enumeration ceiling refuses it, and moments needs no rates past it.
    Grouped tails read a window of classes, so they run at any depth up
    to 2^53."""

    DEEP = 10**9
    CEILING = (f"error: depth {DEEP} exceeds the enumeration ceiling {MAX_ENUMERATION_DEPTH}; "
               "constant rates collapse to n + 1 classes with group_mixture\n")

    @pytest.mark.parametrize("schedule", [f"bleed:a1=0.2,lambda=0.9,N={DEEP}",
                                          f"geometric:a=0.1,N={DEEP}"])
    def test_enumerating_commands_refuse_at_the_ceiling(self, schedule, capsys):
        for argv in schedule_argvs(schedule):
            if argv[0] == "moments":
                continue
            started = time.perf_counter()
            assert cli.main(argv) == 3, argv
            assert time.perf_counter() - started < 2.0, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == self.CEILING, argv

    @pytest.mark.parametrize("schedule", [f"bleed:a1=0.2,lambda=0.9,N={DEEP}",
                                          f"geometric:a=0.1,N={DEEP}",
                                          f"constant:a=0.1,N={DEEP}"])
    def test_moments_gives_the_closed_forms(self, schedule, capsys):
        started = time.perf_counter()
        rc, out = run_cli("moments", "--schedule", schedule, capsys=capsys)
        assert rc == 0 and time.perf_counter() - started < 2.0
        rows = parse_table_csv(out)[1]
        assert [r[0] for r in rows] == list(range(1, 9))
        assert all(r[1] is not None and r[2] is None for r in rows if r[0] in (1, 2, 4))

    def test_grouped_tails_against_mpmath(self, capsys):
        # exceed and loglog at N = 10^9, each within the time a command may
        # take to refuse, against 50-digit mpmath at 1e-12.
        for argv in (["exceed", "--k", "3,10,50"], ["loglog", "--x", "2:12:3"]):
            started = time.perf_counter()
            rc, out = run_cli(*argv, "--schedule", f"constant:a=0.1,N={self.DEEP}",
                              "--format", "json", capsys=capsys)
            assert rc == 0 and time.perf_counter() - started < 2.0, argv
            columns, rows = parse_table_json(out)
            for row in rows:
                cells = dict(zip(columns, row))
                k = cells["K"] if "K" in cells else cells["x"]
                ref = _mp_grouped_log_tail(0.1, self.DEEP, k)
                assert abs(cells["ln_p"] - ref) <= 1e-12 * abs(ref), (argv, k)

    def test_a_grouped_fallback_past_the_ceiling_exits_three(self, capsys):
        # ln|z| lies near 22.7 at every class, so the anchor, near -5e19, is
        # past _PRUNE_LIMIT: nothing may be skipped, and the tail would read
        # all 4 * 10^7 + 1 classes. At N = 1000 it prints -4.9999e19.
        n = 4 * 10**7
        started = time.perf_counter()
        rc = cli.main(["exceed", "--schedule", f"constant:a=1e-8,N={n}",
                       "--sigma", "1e-10", "--k", "1"])
        assert rc == 3 and time.perf_counter() - started < 2.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: a tail of this mixture reads {n + 1} of its {n + 1} "
            f"classes, past the ceiling of 2^{MAX_ENUMERATION_DEPTH} + 1\n")

    @pytest.mark.parametrize("argv", [["--sigma", "1e-300", "--k", "1"],
                                      ["--mu=-1e308", "--k", "1e308"]])
    def test_a_grouped_tail_that_is_minus_inf_everywhere_exits_zero(self, argv, capsys):
        # Every bound is -inf, so nothing may be skipped, but every term is
        # -inf too: no class is read.
        rc, out = run_cli("exceed", "--schedule", f"constant:a=1e-9,N={self.DEEP}", *argv,
                          "--format", "json", capsys=capsys)
        assert rc == 0
        assert parse_table_json(out)[1][0][-2:] == [0.0, -math.inf]

    def test_grouped_tails_past_two_to_the_53_exit_three(self, capsys):
        # Class indices are doubles, which skip integers past 2^53.
        n = 2**53 + 2**20
        rc = cli.main(["exceed", "--schedule", f"constant:a=0.1,N={n}", "--k", "3"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: depth {n} puts class indices past 2^53, where doubles skip integers\n")

    # Each schedule fails its own check at its own N; the --n-list depths
    # alone would pass (they did, before the schedule was checked as written).
    @pytest.mark.parametrize("schedule, err", [
        ("constant:a=0.1,N=-3", "error: depth must be a nonnegative integer, got -3\n"),
        ("bleed:a1=0.2,lambda=0.9,N=-3", "error: depth must be a nonnegative integer, got -3\n"),
        ("geometric:a=0.1,N=-3", "error: depth must be a nonnegative integer, got -3\n"),
        ("bleed:a1=0.2,lambda=1.2,N=12",
         "error: rate a(10) must lie in [0, 1), got 1.0319560703999997\n"),
        ("explicit:0.1,1.5", "error: rate a(2) must lie in [0, 1), got 1.5\n")])
    def test_the_schedule_is_checked_before_n_list_overrides_its_depth(
            self, schedule, err, capsys):
        for argv in schedule_argvs(schedule):
            if argv[0] in ("density", "exceed", "loglog"):
                assert cli.main(argv + ["--n-list", "1,2"]) == 3, argv
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err == err, argv


def _mp_class_log_tail(a: float, n: int, k: float) -> mpmath.mpf:
    # ln P(X > k) for the depth-n constant-rate mixture on mu = 0, sigma = 1,
    # summed over all n + 1 classes at 50 digits, for k >= 1e100: there
    # ln erfc(z) = -z^2 - ln(z sqrt(pi)) + ln(1 - 1/(2 z^2) + ...), whose
    # last term is below 1e-199.
    assert k >= 1e100
    with mpmath.workdps(50):
        ma, mk = mpmath.mpf(a), mpmath.mpf(k)
        terms = []
        for j in range(n + 1):
            z = mk / (mpmath.sqrt(2) * (1 + ma) ** j * (1 - ma) ** (n - j))
            terms.append(mpmath.log(mpmath.binomial(n, j)) - z * z
                         - mpmath.log(z * mpmath.sqrt(mpmath.pi)))
        m = max(terms)
        return m + mpmath.log(mpmath.fsum(mpmath.exp(t - m) for t in terms) / 2 ** (n + 1))


class TestFarTails:
    """ln P is finite wherever it is a finite double: log_erfc is exact
    until z^2 leaves the double range, at ln|z| = LN_MAX / 2, so the tails
    take it out to there. Past it ln P lies below -max double."""

    def test_exceed_prints_a_finite_log_tail(self, capsys):
        rc, out = run_cli("exceed", "--schedule", "constant:a=0.1,N=5", "--k", "1e150",
                          "--format", "json", capsys=capsys)
        assert rc == 0
        columns, rows = parse_table_json(out)
        cells = dict(zip(columns, rows[0]))
        ref = _mp_class_log_tail(0.1, 5, 1e150)
        assert cells["p_exceed"] == 0.0 and math.isfinite(cells["ln_p"])
        assert abs(cells["ln_p"] - ref) <= 2e-13 * abs(ref)

    @pytest.mark.parametrize("flags, rates", [([], [0.01, 0.1]), (["--a", "0"], [0.0])])
    def test_ratio_table_past_the_double_range(self, flags, rates, capsys):
        # ln P(N = 5) - ln P(N = 0) is about 1.9e299 at a = 0.1, an inf
        # ratio; at a = 0 the two tails are one, a ratio of 1.
        rc, out = run_cli("ratio-table", "--n-list", "5", "--k-list", "1e150", *flags,
                          "--format", "json", capsys=capsys)
        assert rc == 0
        rows = parse_table_json(out)[1]
        base = _mp_class_log_tail(0.0, 0, 1e150)
        for a, row in zip(rates, rows, strict=True):
            log_ratio = _mp_class_log_tail(a, 5, 1e150) - base
            assert row == [a, 5, math.inf if log_ratio > LN_MAX else 1.0], a
            assert (log_ratio > LN_MAX) == (a > 0.0)

    def test_loglog_against_mpmath(self, capsys):
        rc, out = run_cli("loglog", "--schedule", "constant:a=0.1,N=5", "--x", "1e140:1e150:5",
                          "--format", "json", capsys=capsys)
        assert rc == 0
        columns, rows = parse_table_json(out)
        assert len(rows) == 5
        for row in rows:
            cells = dict(zip(columns, row))
            ref = _mp_class_log_tail(0.1, 5, cells["x"])
            assert abs(cells["ln_p"] - ref) <= 2e-13 * abs(ref), cells["x"]

    def test_past_minus_max_double_the_log_tail_is_minus_inf(self, capsys):
        # From x = 1e155 on, ln P is about -1.9e309: -inf as a double, which
        # the slope window refuses (exit 3). The points before it are finite.
        series = mixstats.loglog_series(group_mixture(GaussianBase(), 0.1, 5), 1e140, 1e170, 5)
        for x, log_p in zip(series.x.tolist(), series.log_p.tolist()):
            ref = _mp_class_log_tail(0.1, 5, x)
            if ref < -sys.float_info.max:
                assert log_p == -math.inf, x
            else:
                assert abs(log_p - ref) <= 2e-13 * abs(ref), x
        assert np.isfinite(series.log_p).tolist() == [True, True, False, False, False]
        assert cli.main(["loglog", "--schedule", "constant:a=0.1,N=5", "--x", "1e140:1e170:5"]) == 3
        assert capsys.readouterr().err == "error: slope window contains non-finite ln P values\n"


class TestFlagSurface:
    # Every (command, flag) pair the parser declares, each read by its command.
    FLAGS = {
        "density": {"--schedule", "--mu", "--sigma", "--format", "--out", "--x", "--n-list"},
        "exceed": {"--schedule", "--mu", "--sigma", "--format", "--out", "--k", "--n-list"},
        "ratio-table": {"--mu", "--sigma", "--format", "--out", "--a", "--n-list", "--k-list"},
        "moments": {"--schedule", "--mu", "--sigma", "--format", "--out", "--orders"},
        "loglog": {"--schedule", "--mu", "--sigma", "--format", "--out", "--x", "--n-list"},
        "validate": {"--schedule", "--mu", "--sigma", "--format", "--out", "--n-samples",
                     "--seed", "--orders", "--k-list", "--self-test"},
    }
    VALID = {
        "density": ["--schedule", "constant:a=0.1,N=3", "--x=0:1:1"],
        "exceed": ["--schedule", "constant:a=0.1,N=3", "--k", "3"],
        "ratio-table": ["--a", "0.1", "--n-list", "5"],
        "moments": ["--schedule", "constant:a=0.1,N=3", "--orders", "2"],
        "loglog": ["--schedule", "constant:a=0.1,N=3", "--x", "2:6:3"],
        "validate": ["--schedule", "constant:a=0.1,N=3", "--n-samples", "2000"],
    }

    def test_declared_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert declared == self.FLAGS

    @pytest.mark.parametrize("command, extra", [
        ("density", ["--seed", "1"]), ("exceed", ["--seed", "1"]),
        ("ratio-table", ["--seed", "1"]), ("moments", ["--seed", "1"]),
        ("loglog", ["--seed", "1"]),
        ("ratio-table", ["--schedule", "bleed:a1=0.2,lambda=0.9,N=3"])])
    def test_flag_no_command_reads_exits_two(self, command, extra, capsys):
        assert cli.main([command] + self.VALID[command]) == 0
        capsys.readouterr()
        assert cli.main([command] + self.VALID[command] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments" in captured.err

    @pytest.mark.parametrize("command", ["density", "exceed", "moments", "loglog", "validate"])
    def test_missing_schedule_exits_two(self, command, capsys):
        assert cli.main([command] + self.VALID[command]) in (0, 1)
        capsys.readouterr()
        assert cli.main([command] + self.VALID[command][2:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the following arguments are required: --schedule" in captured.err

    def test_rate_errors_of_the_build_precede_the_additive_rule(self, capsys):
        # Rate 3 is 1.125; the power rule would fail first at position 2.
        assert cli.main(["moments", "--schedule",
                         "explicit:0.5,0.75,1.125,1.6875,2.53125;mode=additive"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate a(3) must lie in [0, 1), got 1.125\n"


# The README command lines with every flag the loop may corrupt spelled out;
# validate draws 2e4 samples instead of 1e6 so 300 cases stay quick.
_README_FLAGS = [
    ("density", {"schedule": "constant:a=0.1,N=5", "n-list": "0,5,10,25,50",
                 "x": "-4:4:0.05", "mu": "0", "sigma": "1"}),
    ("exceed", {"schedule": "constant:a=0.1,N=8", "k": "3,5,10", "mu": "0", "sigma": "1"}),
    ("ratio-table", {"a": "0.1", "n-list": "5,10,15,20,25", "k-list": "3,5,10",
                     "mu": "0", "sigma": "1"}),
    ("moments", {"schedule": "bleed:a1=0.2,lambda=0.9,N=10", "orders": "2,4",
                 "mu": "0", "sigma": "1"}),
    ("loglog", {"schedule": "constant:a=0.1,N=50", "n-list": "0,5,10,25,50",
                "x": "2:10:120", "mu": "0", "sigma": "1"}),
    ("validate", {"schedule": "constant:a=0.1,N=8", "n-samples": "20000", "seed": "42",
                  "orders": "1,2,3,4", "k-list": "1,2,3", "mu": "0", "sigma": "1"}),
]
_CORRUPTIBLE = ("x", "k", "k-list", "n-list", "orders", "a", "mu", "sigma", "schedule")
# Integers stay <= 500 and no token makes a grid step below 1e-3, so no case
# asks for much memory or time.
_BAD_TOKENS = ["inf", "-inf", "nan", "", "1e308", "-1e308", "-3", "0", "-0", "2.5",
               "500", "1e-3", "0.999", "1", "x", "1:2", "::", ":", ",", "1,2", " ",
               "+", "-", ".", "1e400", "0x10", "NaN", "1_0"]
# A number of the value: a list item, a range endpoint, or a schedule parameter.
_NUMBER = re.compile(r"(?:(?<=[=,:])|^)[-+]?[0-9.]+(?:e[-+]?[0-9]+)?")


def test_malformed_values_end_in_an_exit_code():
    # Each case swaps one number of a README command line for a bad token.
    # Warnings are errors here, so a leaked RuntimeWarning escapes main too.
    rng = np.random.default_rng(6)
    for i in range(300):
        command, flags = _README_FLAGS[int(rng.integers(len(_README_FLAGS)))]
        flags = dict(flags)
        flag = str(rng.choice([f for f in _CORRUPTIBLE if f in flags]))
        spans = [m.span() for m in _NUMBER.finditer(flags[flag])]
        lo, hi = spans[int(rng.integers(len(spans)))]
        token = _BAD_TOKENS[int(rng.integers(len(_BAD_TOKENS)))]
        flags[flag] = flags[flag][:lo] + token + flags[flag][hi:]
        argv = [command] + [f"--{name}={value}" for name, value in flags.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1, 2, 3), (i, argv, rc)
        assert rc in (0, 1) or "error:" in err.getvalue(), (i, argv, err.getvalue())



# Whole schedule strings, each malformed one way.
_BAD_SCHEDULES = [
    # missing keys or parts
    "", " ", "constant", "constant:", "constant:a=0.1", "constant:N=5",
    "geometric:a=0.1", "bleed:a1=0.2,N=10", "bleed:lambda=0.9,N=10", ":a=0.1,N=5",
    "constant:a=,N=5", "constant:a=0.1,N=",
    # duplicate keys
    "constant:a=0.1,a=0.2,N=5", "constant:a=0.1,N=5,N=6",
    "bleed:a1=0.2,lambda=0.9,lambda=0.8,N=10",
    # unknown keys or kinds
    "constant:a=0.1,N=5,b=1", "constant:A=0.1,N=5", "geometric:a=0.1,lambda=0.9,N=5",
    "bleed:a=0.2,lambda=0.9,N=10", "linear:a=0.1,N=5", "constant:a=0.1;N=5",
    # empty and blank lists
    "explicit:", "explicit: ", "explicit:,", "explicit: , ,", "explicit:0.1,,0.2",
    "explicit:;mode=additive",
    # nan, inf and out-of-range rates and depths
    "constant:a=nan,N=5", "constant:a=inf,N=5", "constant:a=-inf,N=5",
    "constant:a=1e400,N=5", "constant:a=0.1,N=nan", "constant:a=0.1,N=inf",
    "constant:a=0.1,N=1e400", "bleed:a1=0.2,lambda=nan,N=10",
    "bleed:a1=0.2,lambda=inf,N=10", "bleed:a1=0.2,lambda=1e400,N=10",
    "geometric:a=nan,N=5", "explicit:0.1,nan", "explicit:inf", "explicit:1e400",
    # doubled, empty or upper-case mode suffixes
    "explicit:0.1,0.01;mode=additive;mode=additive", "explicit:0.1,0.01;MODE=ADDITIVE",
    "constant:a=0.1,N=5;mode=Additive", "constant:a=0.1,N=5;mode=",
    "constant:a=0.1,N=5;", "explicit:0.1;mode=multiplicative",
    # non-ASCII digits
    "constant:a=0.\u0661,N=5", "constant:a=0.1,N=\u0665", "constant:a=\uff10.1,N=5",
    "explicit:0.1,0.\uff12", "constant:a=0.1,N=5\u00b2", "constant:a=0.1,N=\u2164",
]


@pytest.mark.parametrize("schedule", _BAD_SCHEDULES)
def test_malformed_schedules_end_in_an_exit_code(schedule):
    # Every command that takes --schedule, with the schedule alone setting the depth.
    for command, flags in _README_FLAGS:
        if "schedule" not in flags:
            continue
        flags = dict(flags, schedule=schedule)
        flags.pop("n-list", None)
        argv = [command] + [f"--{name}={value}" for name, value in flags.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1, 2, 3), (argv, rc)
        assert rc in (0, 1) or "error:" in err.getvalue(), (argv, err.getvalue())


@pytest.mark.parametrize("module", ["branchvol", "branchvol.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    argv = ["exceed", "--schedule", "constant:a=0.1,N=8", "--k", "3,5,10"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_all_lists_every_public_name():
    # A name imported into the package but left out of __all__ is dropped by
    # a star import; one left in __all__ after a deletion breaks it.
    public = {name for name, value in vars(branchvol).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(branchvol.__all__) == public
