"""The benchmark's own tests: generator, oracle, layer shares and contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_generator_is_seeded():
    for name in workloads.WHY:
        a, b = workloads.generate(name, 3), workloads.generate(name, 3)
        assert a == b
        assert workloads.digest(a) != workloads.digest(workloads.generate(name, 4))
        assert all(isinstance(tok, str) for call in a for tok in call["argv"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def _one_of_each_command() -> list[dict]:
    chosen = {}
    for name in ("binomial", "enum-tails", "deep-build"):
        for call in workloads.generate(name, 5):
            small = all(n <= 17 for n in call.get("depths", [call.get("sched", {}).get("n", 0)]))
            if call["cmd"] not in chosen and (name == "binomial" or small):
                chosen[call["cmd"]] = call
    return list(chosen.values())


@pytest.mark.parametrize("call", _one_of_each_command(), ids=lambda c: c["cmd"])
def test_oracle_accepts_the_program_and_flags_a_corrupted_value(call):
    from branchvol.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(call["argv"])
    assert oracle.check(call, rc, None, out.getvalue(), oracle.Tally()) == []
    assert oracle.check(call, rc, None, oracle.corrupt(call, out.getvalue()), oracle.Tally())
    assert oracle.check(call, 3, None, out.getvalue(), oracle.Tally())


def _validate_call() -> dict:
    return next(c for c in workloads.generate("deep-build", 1) if c["cmd"] == "validate")


def test_validate_is_checked_against_the_oracle_not_the_printed_figures():
    call = _validate_call()
    from branchvol.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(call["argv"]) == 0
    columns, rows = oracle.parse_csv(out.getvalue())
    # A sampler 5 standard errors off, whose own verdict and exit code are
    # consistent with its estimate, must still fail.
    est, se = float(rows[1][2]), float(rows[1][3])
    rows[1][2] = repr(est + 5.0 * se)
    rows[1][5] = repr((est + 5.0 * se - float(rows[1][4])) / se)
    rows[1][7] = "false"
    text = "\n".join(",".join(r) for r in [columns] + rows) + "\n"
    problems = oracle.check(call, 1, None, text, oracle.Tally())
    assert problems[0] == "exit code 1, expected 0"
    assert any("standard errors from" in p for p in problems)


def test_validate_flags_a_sampler_that_ignores_the_scales(monkeypatch):
    call = _validate_call()
    from branchvol import montecarlo
    from branchvol.cli import main

    real = montecarlo.sample

    def plain_gaussian(mixture, spec):
        return real(dataclasses.replace(mixture, scales=np.ones_like(mixture.scales)), spec)

    monkeypatch.setattr(montecarlo, "sample", plain_gaussian)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(call["argv"])
    problems = oracle.check(call, rc, None, out.getvalue(), oracle.Tally())
    assert any("standard errors from" in p for p in problems)
    assert any(" se: " in p for p in problems)


def test_layer_shares_in_a_traced_run():
    shares = {}
    for name in workloads.WHY:
        result = _result(_run_bench(name, trace=1))
        assert result["correct"], result
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == set(run.PER_LAYER)
        shares[name] = metrics
    assert shares["binomial"]["branching.build.calls"] == 0
    assert shares["binomial"]["montecarlo.sample.calls"] == 0
    assert shares["enum-tails"]["montecarlo.sample.calls"] == 0
    assert shares["deep-build"]["montecarlo.sample.calls"] == 3
    assert shares["binomial"]["cli.runtime_warnings"] > 0
    for name, m in shares.items():
        print(name, {k: round(v, 3) for k, v in m.items() if k.startswith("share.")})


def test_end_to_end_result_line():
    result = _result(_run_bench("binomial", trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("binomial", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
