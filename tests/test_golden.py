"""Golden CLI outputs: stdout bytes frozen from a reference run.

Each case's expected stdout is stored in tests/golden/<name>.csv and must
match byte for byte.

To regenerate after an intended output change:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from branchvol import cli
from branchvol.branching import ErrorSchedule, parse_schedule_spec
from branchvol.closedform import schedule_moments
from branchvol.special import INFINITY

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

# name -> argv; the first six are the README command-line examples.
BYTE_EXACT = {
    "readme_density": ["density", "--schedule", "constant:a=0.1,N=5",
                       "--n-list", "0,5,10,25,50", "--x=-4:4:0.05"],
    "readme_exceed": ["exceed", "--schedule", "constant:a=0.1,N=8", "--k", "3,5,10"],
    "readme_ratio_table": ["ratio-table"],
    "readme_moments": ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=10",
                       "--orders", "2,4"],
    "readme_loglog": ["loglog", "--schedule", "constant:a=0.1,N=50",
                      "--n-list", "0,5,10,25,50", "--x", "2:10:120"],
    "readme_validate": ["validate", "--schedule", "constant:a=0.1,N=8",
                        "--n-samples", "1000000", "--seed", "42"],
    "bleed_exceed": ["exceed", "--schedule", "bleed:a1=0.2,lambda=0.9,N=12",
                     "--k", "3,10,50"],
    "bleed_loglog": ["loglog", "--schedule", "bleed:a1=0.25,lambda=0.8,N=10",
                     "--x", "2:40:12"],
    "bleed_density": ["density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=14",
                      "--x=-4:4:1"],
    "explicit_moments": ["moments", "--schedule",
                         "explicit:0.3,0.25,0.2,0.15,0.1,0.05,0.3,0.2,0.1,0.05"],
    "geometric_exceed": ["exceed", "--schedule", "geometric:a=0.2,N=16",
                         "--k", "3,10,50"],
    # Deep enumerations, and a validate run spanning two 2^20-draw blocks.
    "deep_bleed_moments": ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=20"],
    "deep_bleed_density": ["density", "--schedule", "bleed:a1=0.2,lambda=0.9,N=18",
                           "--x=-4:4:1"],
    "deep_geometric_moments": ["moments", "--schedule", "geometric:a=0.2,N=18"],
    "two_block_validate": ["validate", "--schedule", "constant:a=0.15,N=10",
                           "--n-samples", "2000000", "--seed", "3"],
    # Three blocks, the last of 902849 draws (not a multiple of 8), with
    # power sums up to x^16.
    "three_block_validate": ["validate", "--schedule", "bleed:a1=0.2,lambda=0.9,N=12",
                             "--n-samples", "3000001", "--orders", "1,2,3,4,5,6,7,8",
                             "--seed", "5"],
    # Grouped classes past n = 300, where the log-weights come from Loader's
    # saddle point, not exact binomials.
    "grouped_exceed": ["exceed", "--schedule", "constant:a=0.1,N=100000", "--k", "3,10"],
    "grouped_loglog": ["loglog", "--schedule", "constant:a=0.1,N=10000", "--x", "2:12:5"],
    "grouped_density": ["density", "--schedule", "constant:a=0.2,N=2000", "--x=-4:4:1"],
    "grouped_ratio_table": ["ratio-table", "--a", "0.1", "--n-list", "301,1000,5000",
                            "--k-list", "3,5,10"],
    # Past one 4096-component chunk: thresholds below, at and far above mu.
    "wide_bleed_exceed": ["exceed", "--schedule", "bleed:a1=0.2,lambda=0.9,N=15",
                          "--k=-3,0,3,10,50"],
    "wide_grouped_exceed": ["exceed", "--schedule", "constant:a=0.3,N=30000",
                            "--k=-2,0,3,50"],
    "wide_bleed_loglog": ["loglog", "--schedule", "bleed:a1=0.3,lambda=0.8,N=14",
                          "--x", "2:50:8"],
    # Exact sums of up to 2^18 terms.
    "wide18_bleed_exceed": ["exceed", "--schedule", "bleed:a1=0.2,lambda=0.9,N=18",
                            "--k", "3,10,50"],
    # Closed forms and limits only, a million layers past the enumeration ceiling.
    "million_bleed_moments": ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=1000000",
                              "--mu=0.05"],
    # Rising bleed rates, whose closed forms take the layer product over
    # rates past a1.
    "rising_bleed_moments": ["moments", "--schedule", "bleed:a1=0.05,lambda=1.2,N=16",
                             "--mu=0.05", "--sigma", "1.1"],
}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0, argv
    return out.getvalue()


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(BYTE_EXACT))
def test_byte_identical(name):
    assert _stdout(BYTE_EXACT[name]) == _golden(name)


# Every moments golden, and a case whose order-4 rel_diff read 0 with
# numpy's AVX-512 loops and 1.3e-16 without them when E[S^m] came from np.power.
DISPATCH_CASES = [argv for argv in BYTE_EXACT.values() if argv[0] == "moments"] + [
    ["moments", "--schedule", "geometric:a=0.103,N=17", "--sigma", "1.02"]]
# numpy 2's names for its AVX-512 dispatch targets on x86.
AVX512 = "X86_V4,AVX512_ICL,AVX512_SPR"
_CHILD = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from branchvol import cli
outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    outs.append(out.getvalue())
print(json.dumps([__cpu_features__["X86_V4"], outs]))
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1, which has no X86_V4 target
        return {}
    return __cpu_features__


def _moments_in_a_child(**env) -> tuple[bool, list[str]]:
    # (X86_V4 in use, stdout of each dispatch case) from a fresh process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(DISPATCH_CASES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.skipif(not _cpu_features().get("X86_V4"),
                    reason="numpy reports no X86_V4 features to switch off")
def test_moments_bytes_do_not_follow_the_cpu_dispatch():
    with_avx512, expected = _moments_in_a_child()
    without_avx512, outs = _moments_in_a_child(NPY_DISABLE_CPU_FEATURES=AVX512)
    assert with_avx512 and not without_avx512
    assert outs == expected


def _readme_lines() -> list[str]:
    return README.read_text().splitlines()


def test_readme_examples_are_the_golden_cases():
    examples = [line.split()[1:] for line in _readme_lines() if line.startswith("branchvol ")]
    assert examples == [argv for name, argv in BYTE_EXACT.items() if name.startswith("readme_")]


def test_readme_library_quick_start_runs():
    lines = _readme_lines()
    start = lines.index("```python", lines.index("## Library quick start")) + 1
    namespace = {}
    exec("\n".join(lines[start:lines.index("```", start)]), namespace)
    # The bleed-limit line gives criterion 3's M4 limit.
    assert math.isclose(namespace["m4"], 9.8806226088161086, rel_tol=1e-9)
    assert namespace["m4"] == schedule_moments(ErrorSchedule.bleed(0.2, 0.9, 10), [4], 0.0, 1.0,
                                               INFINITY)[0]


def test_readme_schedule_grammar_parses():
    lines = _readme_lines()
    start = lines.index("```", lines.index("Schedule grammar:")) + 1
    block = lines[start:lines.index("```", start)]
    assert len(block) >= 4
    for line in block:
        parse_schedule_spec(line.partition("#")[0])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in BYTE_EXACT.items():
        (GOLDEN_DIR / f"{name}.csv").write_text(_stdout(argv))
