"""branchvol benchmark: one seeded workload, timed end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum-tails --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each run starts one child process (child.py) that imports branchvol once and
replays the workload's seeded call list through ``branchvol.cli.main``, one
call at a time (a closed loop with a single client), pass after pass until
--seconds are spent. With --trace 0 it reports the end-to-end metrics, and
set-up is repeated in short extra children to report its median. With
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics. Either way this process checks every captured output against an
independent oracle (oracle.py) after the child has ended, so the oracle's
time and memory count in no metric. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_CHILDREN = 15  # set-up-only children; with the measuring child, 16 samples
SETUP_TIMEOUT_S = 120
RESULT_GRACE_S = 100
# BLAS threads would add threads beside the single client.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("cli", "branching", "mixstats", "special", "closedform", "montecarlo")
BINOMIAL_FUNCS = ("density_constant_a", "log_exceedance_constant_a", "exceedance_constant_a",
                  "loglog_series_constant_a", "convexity_ratio")
LOGLOG_FUNCS = ("loglog_series", "loglog_series_constant_a", "local_slopes",
                "tail_slope_estimate")
PER_LAYER = {  # name -> (unit, better)
    "special.erfc.calls": ("count", "lower"),
    "special.erfc.ns_per_call": ("ns", "lower"),
    "special.log_erfc.calls": ("count", "lower"),
    "special.log_erfc.ns_per_call": ("ns", "lower"),
    "mixstats.log_exceedance.self_s": ("s", "lower"),
    "mixstats.exceedance.self_s": ("s", "lower"),
    "mixstats.tail.component_evals": ("count", "lower"),
    "mixstats.tail.useful_frac": ("frac", "higher"),
    "mixstats.binomial.self_s": ("s", "lower"),
    "mixstats.binomial.class_evals": ("count", "lower"),
    "mixstats.density.s": ("s", "lower"),
    "mixstats.density.point_evals": ("count", "lower"),
    "mixstats.moment.s": ("s", "lower"),
    "mixstats.loglog.self_s": ("s", "lower"),
    "branching.build.s": ("s", "lower"),
    "branching.build.calls": ("count", "lower"),
    "branching.build.components": ("count", "lower"),
    "branching.build.ns_per_component": ("ns", "lower"),
    "branching.build.bytes_out": ("bytes", "lower"),
    "branching.build.peak_mb": ("MB", "lower"),
    "branching.parse.s": ("s", "lower"),
    "montecarlo.sample.s": ("s", "lower"),
    "montecarlo.sample.calls": ("count", "lower"),
    "montecarlo.draws": ("count", "lower"),
    "montecarlo.draws_per_s": ("1/s", "higher"),
    "montecarlo.estimate.s": ("s", "lower"),
    "montecarlo.check.s": ("s", "lower"),
    "closedform.s": ("s", "lower"),
    "closedform.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.runtime_warnings": ("count", "lower"),
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    **{f"share.{layer}": ("frac", "lower") for layer in LAYERS},
    "share.special_tail": ("frac", "lower"),
    "share.build_sample": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_cmd(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def _start_child(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its "ready" line; returns it and its set-up time."""
    env = dict(os.environ, **CHILD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(_child_cmd(args, setup_only), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"child did not become ready (got {line!r})")
    return proc, ready


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _setup_only(args) -> tuple[float, float]:
    """Set-up time and speed factor of one set-up-only child."""
    proc, ready = _start_child(args, setup_only=True)
    try:
        text, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("set-up-only child did not exit") from None
    if proc.returncode != 0 or not text.startswith("speed "):
        raise BenchError(f"set-up-only child failed (exit code {proc.returncode})")
    return ready, float(text.split()[1])


def _run_children(args) -> tuple[dict, list[tuple[float, float]]]:
    # Set-up samples are taken before and after the measuring child, so that
    # their median spans the run rather than one moment of it.
    extra = 0 if args.trace else SETUP_CHILDREN
    setups = [_setup_only(args) for _ in range(extra // 2)]
    proc, ready = _start_child(args, setup_only=False)
    try:
        text, _ = proc.communicate(timeout=args.seconds + RESULT_GRACE_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("child did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    doc = json.loads(text.strip().splitlines()[-1])
    setups.append((ready, doc["setup_speed"]))
    setups += [_setup_only(args) for _ in range(extra - extra // 2)]
    return doc, setups


def _check_outputs(calls: list[dict], doc: dict) -> tuple[dict[int, list[str]], oracle.Tally]:
    tally = oracle.Tally()
    problems = {}
    for i, (call, res) in enumerate(zip(calls, doc["first"])):
        found = oracle.check(call, res["rc"], res["error"], res["out"], tally)
        if found:
            problems[i] = found
    return problems, tally


def _negative_control(calls: list[dict], doc: dict) -> str | None:
    """Corrupts one captured value that passed; returns a note if the checker flags it."""
    for i, (call, res) in enumerate(zip(calls, doc["first"])):
        if res["error"] is None and res["rc"] == 0 and call["cmd"] != "validate":
            bad = oracle.corrupt(call, res["out"])
            if oracle.check(call, 0, None, bad, oracle.Tally()):
                return f"corrupted one value of call #{i} ({call['cmd']}): flagged"
            return None
    return None


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, from statistics.quantiles' 100 cut points."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calibrated_walls(passes: list[dict]) -> list[float]:
    """Each pass's summed call latency in seconds, divided by its speed factor."""
    return [sum(p["lat_ns"]) / 1e9 / p["speed"] for p in passes]


def _end_to_end(doc: dict, setups: list[tuple[float, float]]) -> dict[str, float]:
    untraced = [p for p in doc["passes"] if not p["traced"]]
    lat_ms = [ns / 1e6 / p["speed"] for p in untraced for ns in p["lat_ns"]]
    return {
        "setup_s": statistics.median(ready / speed for ready, speed in setups),
        "wall_s": statistics.median(_calibrated_walls(untraced)),
        "call_p50_ms": _quantile(lat_ms, 50),
        "call_p90_ms": _quantile(lat_ms, 90),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }


def _per_layer(doc: dict, tally: oracle.Tally) -> dict[str, float]:
    trace = doc["trace"]
    traced_passes = [p for p in doc["passes"] if p["traced"]]
    traced = _calibrated_walls(traced_passes)
    untraced = _calibrated_walls([p for p in doc["passes"] if not p["traced"]])
    n = len(traced)
    stats = trace["stats"]
    counters = trace["counters"]

    def stat(name: str, field: int) -> float:
        return stats.get(name, [0, 0, 0, 0])[field] / n

    def calls(name):
        return stat(name, 0)

    def total_s(*names):
        return sum(stat(nm, 1) for nm in names) / 1e9

    def self_s(*names):
        return sum(stat(nm, 2) for nm in names) / 1e9

    def layer_self_s(layer):
        return self_s(*(nm for nm in stats if nm.startswith(layer + ".")))

    def counted(name):
        return counters.get(name, 0) / n

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wall_s = sum(sum(p["lat_ns"]) for p in traced_passes) / n / 1e9  # uncalibrated, as spans
    m = {
        "special.erfc.calls": calls("special.erfc"),
        "special.erfc.ns_per_call": per(stat("special.erfc", 2), calls("special.erfc")),
        "special.log_erfc.calls": calls("special.log_erfc"),
        "special.log_erfc.ns_per_call": per(stat("special.log_erfc", 2),
                                            calls("special.log_erfc")),
        "mixstats.log_exceedance.self_s": self_s("mixstats.log_exceedance"),
        "mixstats.exceedance.self_s": self_s("mixstats.exceedance"),
        "mixstats.tail.component_evals": counted("mixstats.tail.component_evals"),
        "mixstats.tail.useful_frac": per(tally.useful, tally.terms),
        "mixstats.binomial.self_s": self_s(*(f"mixstats.{f}" for f in BINOMIAL_FUNCS)),
        "mixstats.binomial.class_evals": counted("mixstats.binomial.class_evals"),
        "mixstats.density.s": total_s("mixstats.density"),
        "mixstats.density.point_evals": counted("mixstats.density.point_evals"),
        "mixstats.moment.s": total_s("mixstats.mixture_raw_moment",
                                     "mixstats.mixture_abs_first_moment"),
        "mixstats.loglog.self_s": self_s(*(f"mixstats.{f}" for f in LOGLOG_FUNCS)),
        "branching.build.s": total_s("branching.build_mixture"),
        "branching.build.calls": calls("branching.build_mixture"),
        "branching.build.components": counted("branching.build.components"),
        "branching.build.ns_per_component": per(
            stat("branching.build_mixture", 1), counted("branching.build.components")),
        "branching.build.bytes_out": counted("branching.build.bytes_out"),
        "branching.build.peak_mb": trace["peak_bytes"].get("branching.build_mixture", 0) / 2**20,
        "branching.parse.s": total_s("branching.parse_schedule_spec"),
        "montecarlo.sample.s": total_s("montecarlo.sample"),
        "montecarlo.sample.calls": calls("montecarlo.sample"),
        "montecarlo.draws": counted("montecarlo.draws"),
        "montecarlo.draws_per_s": per(counted("montecarlo.draws"),
                                      total_s("montecarlo.sample")),
        "montecarlo.estimate.s": total_s("montecarlo.estimate"),
        "montecarlo.check.s": total_s("montecarlo.check_report"),
        "closedform.s": trace["entries"].get("closedform", [0, 0])[1] / n / 1e9,
        "closedform.calls": trace["entries"].get("closedform", [0, 0])[0] / n,
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_out": counted("cli.bytes_out"),
        "cli.runtime_warnings": counted("cli.runtime_warnings"),
    }
    for layer in LAYERS:
        names = [nm for nm in stats if nm.startswith(layer + ".")]
        m[f"{layer}.errors"] = sum(stats[nm][3] for nm in names) / n
        m[f"share.{layer}"] = per(layer_self_s(layer), wall_s)
    m["share.special_tail"] = per(layer_self_s("special") + self_s(
        "mixstats.log_exceedance", "mixstats.exceedance"), wall_s)
    m["share.build_sample"] = per(total_s("branching.build_mixture", "montecarlo.sample"),
                                  wall_s)
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {name: m[name] for name in PER_LAYER}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args) -> dict:
    if not (ROOT / "src" / "branchvol" / "__init__.py").is_file():
        raise BenchError(f"no branchvol sources under {ROOT / 'src'}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    calls = workloads.generate(args.workload, args.seed)
    sha = workloads.digest(calls)
    doc, setups = _run_children(args)
    if doc["sha256"] != sha:
        raise BenchError("child generated a different call list")

    problems, tally = _check_outputs(calls, doc)
    control = _negative_control(calls, doc)
    attempted = failed = 0
    for p in doc["passes"]:
        attempted += len(p["lat_ns"])
        failed += len(set(problems) | set(p["differs"]))
    for p in doc["passes"]:
        for i in p["differs"]:
            problems.setdefault(i, []).append("output differs between passes")
    metrics = _per_layer(doc, tally) if args.trace else _end_to_end(doc, setups)
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END

    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"why: {workloads.WHY[args.workload]}",
        f"calls: {len(calls)} per pass, sha256 {sha}",
        f"host: python {doc['python']}, numpy {doc['numpy']}, "
        f"nproc {os.cpu_count()}, cpu {_cpu_model()}",
        f"passes: {sum(not p['traced'] for p in doc['passes'])} untraced, "
        f"{sum(p['traced'] for p in doc['passes'])} traced",
        f"speed factor: set-up median {statistics.median(sp for _, sp in setups):.4g}, "
        f"passes median {statistics.median(p['speed'] for p in doc['passes']):.4g} "
        f"(times below are divided by it)",
        f"negative control: {control or 'NOT flagged'}",
        f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} calls)",
    ]
    lines += [f"{name}: {value:.6g} {units[name]}" for name, value in metrics.items()]
    for i, found in sorted(problems.items()):
        lines.append(f"FAILED call #{i}: {' '.join(calls[i]['argv'])}")
        lines += [f"    {p}" for p in found[:5]]
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workloads.WHY[args.workload], "sha256": sha,
              "python": doc["python"], "numpy": doc["numpy"], "nproc": os.cpu_count(),
              "cpu": _cpu_model(), "setup_samples_s": setups,
              "passes": [{"traced": p["traced"], "speed": p["speed"], "wall_s": sum(p["lat_ns"]) / 1e9}
                         for p in doc["passes"]],
              "pass_latencies_ms": [[ns / 1e6 for ns in p["lat_ns"]] for p in doc["passes"]],
              "failures": {str(i): {"argv": calls[i]["argv"], "problems": f}
                           for i, f in problems.items()},
              "metrics": metrics}
    if args.trace:
        record["trace"] = {k: doc["trace"][k] for k in
                           ("stats", "entries", "edges", "counters", "spans",
                            "warnings_per_call")}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    return {
        "correct": failed == 0 and control is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY) + ["all"],
                    help='one workload, or "all" to run each in turn and end with one '
                         "combined result whose metric names carry the workload name")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run(argparse.Namespace(**{**vars(args), "workload": name}))
            print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
