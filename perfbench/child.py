"""The measured process: imports branchvol once and replays a seeded call list.

Started by run.py, one per run (plus short set-up-only copies). It calls
``branchvol.cli.main(argv)`` in-process, one call at a time, and captures
each call's stdout and stderr. Passes over the call list repeat until the
time budget is spent; with --trace 1, untraced and traced passes alternate
so the tracing overhead is measured in the same process. It writes "ready"
on stdout once set-up is done, then either (--setup-only) its speed factor
and exits, or, when the passes end, one JSON document.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import resource
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import numpy

import workloads
from tracer import Tracer

# Address-space cap: an over-budget call ends as a recorded MemoryError
# rather than an OOM kill. Enumerating N=21 peaks near 1.1 GB of RSS and
# 1.25 GB of address space; N=22 needs about 2.2 GB of RSS.
ADDRESS_SPACE_LIMIT = 2560 * 2**20


# Speed calibration. A shared 2-vCPU virtual machine (Intel Xeon) was seen to
# drift in speed, whole minutes up to 1.8x faster or slower, which would
# swamp any change to the program. A fixed kernel, a Python float loop and a
# pass over a 2 MB numpy array (the two kinds of work branchvol does), runs
# between calls outside their timed regions. It runs twice and only the
# second run is timed, so the caches it meets depend little on what the
# call before it did. Its mean time over a stretch of the run, divided by
# KERNEL_NOMINAL_NS, is that stretch's speed factor; run.py divides the
# times it reports by the factor.
KERNEL_NOMINAL_NS = 1_500_000
SETUP_KERNELS = 10


def _kernel(arrays) -> None:
    # Writes into a preallocated array, so the kernel never moves peak RSS.
    array, scratch = arrays
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) * math.exp(-1.0 / i)
    numpy.multiply(array, 1.0001, out=scratch)
    scratch += x
    scratch.sum()


def _kernel_ns(arrays) -> int:
    _kernel(arrays)
    start = perf_counter_ns()
    _kernel(arrays)
    return perf_counter_ns() - start


def _speed(arrays, kernels: int) -> float:
    return sum(_kernel_ns(arrays) for _ in range(kernels)) / (kernels * KERNEL_NOMINAL_NS)


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _peak_rss_kb() -> int:
    """Peak RSS of this process's own address space.

    ru_maxrss is not used: on Linux it keeps the parent's peak across the
    fork and exec that started this process, so the parent's scipy import and
    oracle arrays would count here.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed(main, argv: list[str]) -> tuple:
    start = perf_counter_ns()
    try:
        rc, error = main(argv), None
    except Exception:
        rc, error = None, traceback.format_exc(limit=-3)
    return rc, error, start, perf_counter_ns()


def _invoke(main, argv: list[str], tracer, request: int) -> dict:
    """Run one CLI call; returns its exit code, error, outputs and latency."""
    out, err = io.StringIO(), io.StringIO()
    runtime_warnings = 0
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            rc, error, start, end = _timed(main, argv)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tracer.request = request
                frame = tracer.enter("cli.main")
                rc, error, start, end = _timed(main, argv)
                tracer.leave(frame, start, end, error is not None)
            runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            tracer.count("cli.runtime_warnings", runtime_warnings)
            tracer.count("cli.bytes_out", len(out.getvalue().encode()))
    return {"rc": rc, "error": error, "out": out.getvalue(), "err": err.getvalue(),
            "ns": end - start, "warnings": runtime_warnings}


def _run_pass(main, calls: list[dict], tracer, first: list[dict] | None, arrays) -> dict:
    """One pass over the call list, with a calibration kernel before each call;
    `differs` lists calls whose result changed since the first pass."""
    results, kernel_ns = [], 0
    for i, call in enumerate(calls):
        kernel_ns += _kernel_ns(arrays)
        results.append(_invoke(main, call["argv"], tracer, i))
    differs = [i for i, (r, f) in enumerate(zip(results, first or results))
               if (r["rc"], r["error"], r["out"]) != (f["rc"], f["error"], f["out"])]
    return {"traced": tracer is not None, "lat_ns": [r["ns"] for r in results],
            "speed": kernel_ns / (len(calls) * KERNEL_NOMINAL_NS), "differs": differs,
            "results": results}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args()

    _limit_memory()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from branchvol.cli import main as cli_main

    calls = workloads.generate(opts.workload, opts.seed)
    warm = _invoke(cli_main, workloads.WARMUP[opts.workload], None, -1)
    if warm["rc"] != 0:
        print(f"warm-up call failed: {warm['error'] or warm['err']}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    arrays = (numpy.ones(1 << 18), numpy.empty(1 << 18))
    setup_speed = _speed(arrays, SETUP_KERNELS)
    if opts.setup_only:
        print(f"speed {setup_speed!r}")
        return 0

    tracer = Tracer() if opts.trace else None
    passes: list[dict] = []
    first = None
    budget = opts.seconds * 1e9
    start = perf_counter_ns()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            p = _run_pass(cli_main, calls, tracer if traced else None, first, arrays)
        finally:
            if traced:
                tracer.uninstall()
        if first is None:
            first = p["results"]
        if traced:
            warnings_per_call = [r["warnings"] for r in p["results"]]
        del p["results"]
        passes.append(p)
        # Start another pass only if the last one like it would still fit in
        # the budget; the first pass of each kind always runs.
        next_traced = tracer is not None and len(passes) % 2 == 1
        like = [q for q in passes if q["traced"] == next_traced]
        if like and perf_counter_ns() - start + sum(like[-1]["lat_ns"]) > budget:
            break

    doc = {
        "sha256": workloads.digest(calls),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_kb": _peak_rss_kb(),
        "setup_speed": setup_speed,
        "first": [{k: r[k] for k in ("rc", "error", "out", "err")} for r in first],
        "passes": passes,
    }
    if tracer is not None:
        doc["trace"] = {
            "stats": tracer.stats,
            "entries": tracer.entries,
            "edges": [[parent, name, n] for (parent, name), n in tracer.edges.items()],
            "counters": tracer.counters,
            "peak_bytes": tracer.peak_bytes,
            "spans": tracer.spans,
            "warnings_per_call": warnings_per_call,
        }
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
