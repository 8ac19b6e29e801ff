"""One sha256 over everything the CLI prints for a fixed set of calls.

The calls are every call of the three benchmark workloads at seeds 1, 7 and
31337 (from perfbench/workloads.py, read but not changed) and the README
command-line examples with --format json. Two trees that print the same
digest gave the same argv, exit code, stdout and stderr on every call.
branchvol is imported from this tree's src/, whatever PYTHONPATH holds.

stdout gets only the digest line. stderr gets one line per call: the first
12 hex digits of that call's own sha256, then its argv, so a diff of the
stderr of two trees names the calls that changed.

    python3 tools/output_digest.py 2> calls.txt
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache file in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402

from branchvol import cli  # noqa: E402

argvs = [c["argv"] for w in ("enum-tails", "deep-build", "binomial")
         for seed in (1, 7, 31337) for c in workloads.generate(w, seed)]
argvs += [line.split()[1:] + ["--format", "json"]
          for line in (ROOT / "README.md").read_text().splitlines()
          if line.startswith("branchvol ")]
h = hashlib.sha256()
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    record = json.dumps([argv, rc, out.getvalue(), err.getvalue()]).encode()
    h.update(record)
    print(hashlib.sha256(record).hexdigest()[:12], *argv, file=sys.stderr)
print(f"{h.hexdigest()}  {len(argvs)} calls")
