"""Wall time and peak RSS of CLI calls, each in a fresh process.

Every argv runs as `python3 -m branchvol <argv>` in a child of its own, with
this tree's src/ on PYTHONPATH; its output is discarded. The child's peak RSS
is the ru_maxrss that wait4 reports for it. Linux carries the parent's peak
across fork and exec into that figure (see perfbench/NOTES.md), so this
script imports neither numpy nor branchvol, and it prints its own peak: a
child figure at or below it is not the child's own, and is marked so.

    python3 tools/peak_rss.py                      # the default cases
    python3 tools/peak_rss.py "moments --schedule bleed:a1=0.2,lambda=0.9,N=24"

The default cases are the README command lines, the slow commands that
ROADMAP.md lists, the deepest `moments` and the `validate` draw count of
the benchmark's deep-build workload, two bleed commands at N = 10^9 that
must end at once: `exceed` at the enumeration ceiling (exit 3) and `moments`
from its closed forms, `moments` on a million slowly rising bleed rates,
whose closed forms stop once their layer product is inf, and `exceed` and
`loglog` on constant rates at N = 2*10^9 and 10^9, which read a window of
their classes (at 120 thresholds, overlapping windows share one run, and
about 2^14 kept classes go through the tail kernel at a time), and
`density` on constant rates at N = 10^7, which reads every class a run at
a time.
"""

import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_CASES = [
    "loglog --schedule bleed:a1=0.2,lambda=0.9,N=20 --x 2:50:120",
    "exceed --schedule bleed:a1=0.2,lambda=0.9,N=24 --k 3,10,50",
    "density --schedule bleed:a1=0.2,lambda=0.9,N=22 --x=-4:4:0.05",
    "density --schedule bleed:a1=0.2,lambda=0.9,N=22 --sigma 1e-303 --x=-4e-303:4e-303:1e-303",
    "moments --schedule bleed:a1=0.2,lambda=0.9,N=24",
    "exceed --schedule geometric:a=0.1,N=30 --k 3",
    "validate --schedule constant:a=0.1,N=30 --n-samples 100000",
    "moments --schedule bleed:a1=0.2,lambda=0.9,N=21",
    "validate --schedule constant:a=0.1,N=8 --n-samples 2000000",
    "exceed --schedule bleed:a1=0.2,lambda=0.9,N=1000000000 --k 3",
    "moments --schedule bleed:a1=0.2,lambda=0.9,N=1000000000",
    "moments --schedule bleed:a1=0.2,lambda=1.0000001,N=1000000",
    "exceed --schedule constant:a=0.1,N=2000000000 --k 3,10,50",
    "loglog --schedule constant:a=0.1,N=1000000000 --x 2:12:5",
    "loglog --schedule constant:a=0.1,N=1000000000 --x 2:12:120",
    "density --schedule constant:a=0.1,N=10000000 --x=-4:4:1",
]


def default_cases() -> list[str]:
    readme = (ROOT / "README.md").read_text().splitlines()
    return [line.split(maxsplit=1)[1] for line in readme if line.startswith("branchvol ")] + SLOW_CASES


def measure(argv: list[str]) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MiB) of one child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "branchvol", *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024


def main(cases: list[str]) -> None:
    print("wall_s   peak_mb  rc  argv")
    for case in cases:
        rc, wall, peak = measure(shlex.split(case))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mark = f"  (at or below this script's {own:.1f} MB)" if peak <= own else ""
        print(f"{wall:7.3f}  {peak:7.1f}  {rc:2d}  {case}{mark}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or default_cases())
