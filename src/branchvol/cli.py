"""Command-line front end.

Commands: density, exceed, ratio-table, moments, loglog, validate. Each
emits a single table, as CSV (header row, '.' decimals, scientific
notation once the exponent magnitude reaches 6) or as versioned JSON, to
stdout or --out. Output is byte-identical for a fixed configuration on one
numpy build and CPU target, and for moments on every CPU; the only
randomness is the --seed flag consumed by validate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import closedform, mixstats, montecarlo
from ._checks import check_order
from .branching import (
    MAX_ENUMERATION_DEPTH,
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    ScheduleParseError,
    build_mixture,
    group_mixture,
    parse_schedule_spec,
)
from .special import INFINITY

SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if f == 0.0:
        return "0"
    exponent = math.floor(math.log10(abs(f)))
    if abs(exponent) >= 6:
        return f"{f:.12e}"
    s = f"{f:.{max(0, 12 - exponent)}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def _json_cell(v):
    # RFC 8259 JSON has no inf or nan: such a cell carries its CSV token.
    if isinstance(v, float) and not math.isfinite(v):
        return _format_value(v)
    return v


def _emit(args, command: str, columns: list[str], rows: list[list]) -> None:
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": columns,
            "rows": [[_json_cell(c) for c in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_format_value(c) for c in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(text: str, flag: str, kind=float) -> list:
    # Comma-separated values of one kind (float or int); empty tokens skipped.
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ScheduleParseError(f"{flag} expects comma-separated {noun}, got {text!r}")
    if not values:
        raise ScheduleParseError(f"{flag} must not be empty")
    return values


def _parse_range(text: str, last: str, kind=float) -> tuple:
    # --x as min:max:<last> with finite endpoints; the last part is of the given kind.
    try:
        lo, hi, third = text.split(":")
        lo, hi, third = float(lo), float(hi), kind(third)
    except ValueError:
        raise ScheduleParseError(f"--x expects min:max:{last}, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScheduleParseError(f"--x needs finite min and max, got {text!r}")
    return lo, hi, third


def _parse_grid(text: str) -> np.ndarray:
    # min:max:step, endpoints included (the count is rounded from the step).
    lo, hi, step = _parse_range(text, "step")
    if not (hi > lo and 0.0 < step < math.inf):
        raise ScheduleParseError(f"--x needs max > min and a finite step > 0, got {text!r}")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise ScheduleParseError(f"--x has more points than a double can count, got {text!r}")
    return np.linspace(lo, hi, int(round(steps)) + 1)


def _parse_logrange(text: str) -> tuple[float, float, int]:
    # min:max:points with an integer point count on a geometric grid.
    lo, hi, points = _parse_range(text, "points", int)
    if points < 3:
        raise ScheduleParseError("loglog needs at least 3 points for slope columns")
    return lo, hi, points


def _base(args) -> GaussianBase:
    return GaussianBase(mu=args.mu, sigma=args.sigma)


def _n_list(args, schedule: ErrorSchedule) -> list[int]:
    if args.n_list:
        return _parse_list(args.n_list, "--n-list", int)
    return [schedule.depth]


def _mixture(base: GaussianBase, schedule: ErrorSchedule, n: int) -> MixtureDistribution:
    # Constant rates collapse to n + 1 classes; everything else is enumerated.
    if schedule.kind == "constant":
        return group_mixture(base, schedule.a, n)
    return build_mixture(base, schedule.at_depth(n))


def cmd_density(args) -> int:
    base = _base(args)
    schedule = parse_schedule_spec(args.schedule)
    grid = _parse_grid(args.x)
    depths = _n_list(args, schedule)
    columns = ["x"] + [f"f_N{n}" for n in depths]
    series = [mixstats.density(_mixture(base, schedule, n), grid) for n in depths]
    rows = [[grid[i]] + [s[i] for s in series] for i in range(grid.size)]
    _emit(args, "density", columns, rows)
    return 0


def cmd_exceed(args) -> int:
    base = _base(args)
    schedule = parse_schedule_spec(args.schedule)
    thresholds = _parse_list(args.k, "--k")
    depths = _n_list(args, schedule)
    rows = []
    for n in depths:
        log_ps = mixstats.log_exceedance(_mixture(base, schedule, n), thresholds).tolist()
        rows.extend([n, k, math.exp(log_p), log_p] for k, log_p in zip(thresholds, log_ps))
    _emit(args, "exceed", ["N", "K", "p_exceed", "ln_p"], rows)
    return 0


def cmd_ratio_table(args) -> int:
    base = _base(args)
    rates = [args.a] if args.a is not None else [0.01, 0.1]
    depths = _parse_list(args.n_list, "--n-list", int) if args.n_list else [5, 10, 15, 20, 25]
    thresholds = _parse_list(args.k_list, "--k-list") if args.k_list else [3.0, 5.0, 10.0]
    columns = ["a", "N"] + [f"K{_format_value(k)}" for k in thresholds]
    # The depth-0 tails, shared by every row.
    base_log_p = mixstats.log_exceedance(group_mixture(base, 0.0, 0), thresholds)
    rows = []
    for a in rates:
        for n in depths:
            ratios = mixstats.convexity_ratio(group_mixture(base, a, n), thresholds,
                                               base_log_p=base_log_p)
            rows.append([a, n] + ratios.tolist())
    _emit(args, "ratio-table", columns, rows)
    return 0


def cmd_moments(args) -> int:
    base = _base(args)
    schedule = parse_schedule_spec(args.schedule)
    orders = _parse_list(args.orders, "--orders", int) if args.orders else list(range(1, 9))
    for k in orders:  # one range, 1..8, for every schedule and depth
        check_order(k, lowest=1)
    mixture = None
    if schedule.depth <= MAX_ENUMERATION_DEPTH:
        mixture = build_mixture(base, schedule)
    # Each column's first error, if any, comes at an order no later than
    # the limits' first: a limit that fails fails at depth n too.
    closed, limits = (closedform.schedule_moments(schedule, orders, base.mu, base.sigma, n)
                      for n in (schedule.depth, INFINITY))
    rows = [[order, c, None, None, lim] for order, c, lim in zip(orders, closed, limits)]
    if mixture is not None:
        # Every scale moment in one pass.
        for row, enum in zip(rows, mixstats.mixture_raw_moments(mixture, orders)):
            row[2] = enum
            if row[1] is not None:
                row[3] = abs(row[1] - enum) / max(abs(row[1]), abs(enum), 1e-300)
    _emit(
        args,
        "moments",
        ["order", "closed_form", "enumeration", "rel_diff", "limit_inf"],
        rows,
    )
    return 0


def cmd_loglog(args) -> int:
    base = _base(args)
    schedule = parse_schedule_spec(args.schedule)
    lo, hi, points = _parse_logrange(args.x)
    depths = _n_list(args, schedule)
    rows = []
    for n in depths:
        series = mixstats.loglog_series(_mixture(base, schedule, n), lo, hi, points)
        slopes = mixstats.local_slopes(series)
        for i in range(len(series)):
            rows.append([n, series.x[i], series.log_x[i], series.log_p[i], slopes[i]])
    _emit(args, "loglog", ["N", "x", "ln_x", "ln_p", "local_slope"], rows)
    return 0


def cmd_validate(args) -> int:
    base = _base(args)
    schedule = parse_schedule_spec(args.schedule)
    orders = tuple(_parse_list(args.orders, "--orders", int)) if args.orders else (1, 2, 3, 4)
    if args.k_list:
        thresholds = tuple(_parse_list(args.k_list, "--k-list"))
    else:
        thresholds = tuple(base.mu + base.sigma * m for m in (1.0, 2.0, 3.0))
    for k in orders:  # as moments checks them, before anything is built
        check_order(k, lowest=1)
    mixture = build_mixture(base, schedule)
    mixture = replace(mixture, scales=mixture.part("scales"))  # built once; each reader slices them
    references: dict[tuple[str, float], float] = {}
    for order, moment in zip(orders, mixstats.mixture_raw_moments(mixture, orders)):
        references[("moment", float(order))] = moment
    for k in thresholds:
        references[("exceedance", k)] = mixstats.exceedance(mixture, k)
    if args.self_test:
        # Negative control: corrupt the references and expect failures.
        references = {
            key: ref + 1.0 + abs(ref) for key, ref in references.items()
        }
    sample_spec = montecarlo.SampleSpec(
        n_samples=args.n_samples,
        seed=args.seed,
        moment_orders=orders,
        thresholds=thresholds,
    )
    report = montecarlo.estimate(montecarlo.sample(mixture, sample_spec))
    checks = montecarlo.check_report(report, references)
    rows = [
        [c.kind, c.key, c.estimate, c.se, c.reference, c.z, c.reliable, c.passed]
        for c in checks
    ]
    _emit(
        args,
        "validate",
        ["kind", "key", "estimate", "se", "reference", "z", "reliable", "passed"],
        rows,
    )
    return 0 if all(c.passed is not False for c in checks) else 1


def _add_common(sp) -> None:
    sp.add_argument("--mu", type=float, default=0.0, help="base location (default 0)")
    sp.add_argument("--sigma", type=float, default=1.0, help="base scale (default 1)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_schedule(sp) -> None:
    sp.add_argument("--schedule", required=True, help=(
        "constant:a=<r>,N=<n> | bleed:a1=<r>,lambda=<r>,N=<n> | "
        "geometric:a=<r>,N=<n> | explicit:<r1,r2,...>[;mode=additive]"))


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchvol",
        description="Branching uncertainty on a Gaussian scale: densities, "
        "tails, moments, and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("density", help="density curves, optionally for several depths")
    _add_schedule(sp)
    _add_common(sp)
    sp.add_argument("--x", required=True, help="grid min:max:step (use --x=-4:4:0.05)")
    sp.add_argument("--n-list", help="comma-separated depths overriding the schedule N")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("exceed", help="tail probabilities P(X > K)")
    _add_schedule(sp)
    _add_common(sp)
    sp.add_argument("--k", required=True, help="comma-separated thresholds")
    sp.add_argument("--n-list", help="comma-separated depths overriding the schedule N")
    sp.set_defaults(func=cmd_exceed)

    sp = sub.add_parser(
        "ratio-table", help="tail inflation ratios vs the depth-0 Gaussian"
    )
    _add_common(sp)
    sp.add_argument("--a", type=float, default=None, help="rate (default: both 0.01 and 0.1)")
    sp.add_argument("--n-list", help="depth rows (default 5,10,15,20,25)")
    sp.add_argument("--k-list", help="threshold columns (default 3,5,10)")
    sp.set_defaults(func=cmd_ratio_table)

    sp = sub.add_parser(
        "moments", help="closed-form vs enumerated raw moments, with limits"
    )
    _add_schedule(sp)
    _add_common(sp)
    sp.add_argument("--orders", help="comma-separated orders (default 1..8)")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("loglog", help="log-log survival series with local slopes")
    _add_schedule(sp)
    _add_common(sp)
    sp.add_argument("--x", required=True, help="geometric grid min:max:points")
    sp.add_argument("--n-list", help="comma-separated depths overriding the schedule N")
    sp.set_defaults(func=cmd_loglog)

    sp = sub.add_parser("validate", help="Monte Carlo check against exact values")
    _add_schedule(sp)
    _add_common(sp)
    sp.add_argument("--n-samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--orders", help="moment targets (default 1,2,3,4)")
    sp.add_argument("--k-list", help="exceedance targets (default mu + {1,2,3} sigma)")
    sp.add_argument(
        "--self-test",
        action="store_true",
        help="corrupt the references to confirm the check can fail",
    )
    sp.set_defaults(func=cmd_validate)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse rejects values like "-4:4:0.05" as option-looking; fold them
    # into --flag=value form so grids and thresholds may start with a minus.
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in ("--x", "--k", "--k-list")
            and i + 1 < len(argv)
            and len(argv[i + 1]) > 1
            and argv[i + 1][0] == "-"
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScheduleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:  # e.g. a moment of a mu or sigma near 1e308
        print(f"error: result outside the double range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # e.g. a --x step too fine for the grid to fit
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
