"""Grouped goldens against 50-digit mpmath: old weights, new weights, truth.

For every computed cell of the five golden cases past n = 300, prints the
value the CLI prints with the old log-weights (ln n! - ln j! - ln (n-j)!
from one math.lgamma table), the value it prints now (Loader's saddle
point), and a 50-digit mpmath reference. Each reference sums the classes
within 80 nats of the largest term; a double-precision scipy estimate
picks them. Input cells (N, K, a, x, ln_x) do not depend on the weights
and are not listed. Exits 1 if a cell that changed moved away from the
reference, or if any input cell changed.

    python3 tools/grouped_reference.py

Needs the test extras (pytest, mpmath, scipy). branchvol is imported from
this tree's src/, whatever PYTHONPATH holds. Takes a few seconds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import gammaln, log_ndtr

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
sys.dont_write_bytecode = True  # leave no cache file in tests/
from test_golden import BYTE_EXACT  # noqa: E402

from branchvol import branching, cli  # noqa: E402

mpmath.mp.dps = 50
WINDOW = 80.0  # nats below the largest term
# The golden cases past n = 300; all take mu = 0, sigma = 1.
CASES = {name: BYTE_EXACT[name] for name in (
    "grouped_exceed", "grouped_loglog", "grouped_density", "grouped_ratio_table",
    "wide_grouped_exceed")}
INPUTS = {"N", "K", "a", "x", "ln_x"}


def lgamma_log_weights(n: int, lo: int, hi: int) -> np.ndarray:
    """The old weights of classes lo..hi-1: exact binomials up to n = 300,
    one lgamma table above."""
    if n <= branching._EXACT_BINOM_LIMIT:
        return current_log_weights(n, lo, hi)
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)
    log_weights = lg[-1] - lg
    log_weights -= lg[::-1]
    log_weights -= n * branching._LN2
    return log_weights[lo:hi]


current_log_weights = branching._binomial_log_weights


def run(argv: list[str], old: bool) -> list[dict]:
    """The CLI's JSON rows, with the old or the current log-weights."""
    branching._binomial_log_weights = lgamma_log_weights if old else current_log_weights
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", "json"]) == 0, argv
    finally:
        branching._binomial_log_weights = current_log_weights
    payload = json.loads(out.getvalue())
    return [dict(zip(payload["columns"], row)) for row in payload["rows"]]


def mp_sum(a: float, n: int, log_term, log_term_mp) -> mpmath.mpf:
    """sum_j C(n, j) 2^-n f(s_j) over the classes within WINDOW nats of the
    largest term; log_term gives ln f from ln s_j in doubles, log_term_mp
    in mpmath."""
    j = np.arange(n + 1, dtype=np.float64)
    log_s = j * math.log1p(a) + (n - j) * math.log1p(-a)
    est = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) - n * math.log(2)
    est += log_term(log_s)
    keep = np.flatnonzero(est > est.max() - WINDOW - 1.0)
    ma = mpmath.mpf(a)
    up, down, ln2n = mpmath.log1p(ma), mpmath.log1p(-ma), n * mpmath.log(2)
    logs = [mpmath.log(mpmath.binomial(n, i)) - ln2n + log_term_mp(i * up + (n - i) * down)
            for i in keep.tolist()]
    assert abs(float(max(logs)) - est.max()) < 1e-6, "the estimate picked the wrong classes"
    return mpmath.fsum(mpmath.exp(t) for t in logs)


def z_score(x: float, log_s: np.ndarray) -> np.ndarray:
    """x / s in doubles: 0 at x = 0, +-inf where 1/s overflows."""
    with np.errstate(over="ignore"):
        return x * np.exp(-log_s) if x else np.zeros_like(log_s)


def tail(a: float, n: int, k: float) -> mpmath.mpf:
    """P(X > k) for mu = 0, sigma = 1."""
    mk = mpmath.mpf(k)
    return mp_sum(a, n, lambda ls: log_ndtr(-z_score(k, ls)),
                  lambda ls: mpmath.log(mpmath.erfc(mk / (mpmath.exp(ls) * mpmath.sqrt(2))) / 2))


def density(a: float, n: int, x: float) -> mpmath.mpf:
    """The density at x for mu = 0, sigma = 1."""
    mx = mpmath.mpf(x)
    with np.errstate(over="ignore"):
        total = mp_sum(a, n, lambda ls: -ls - 0.5 * z_score(x, ls) ** 2,
                       lambda ls: -ls - (mx * mpmath.exp(-ls)) ** 2 / 2)
    return total / mpmath.sqrt(2 * mpmath.pi)


def slopes(log_x: list[float], log_p: list) -> list:
    """cli's local slopes: least squares over a centred 5-point window."""
    out = []
    for i in range(len(log_x)):
        lx = [mpmath.mpf(v) for v in log_x[max(0, i - 2):i + 3]]
        lp = log_p[max(0, i - 2):i + 3]
        mx, mp = mpmath.fsum(lx) / len(lx), mpmath.fsum(lp) / len(lp)
        dx = [v - mx for v in lx]
        out.append(mpmath.fsum(d * (p - mp) for d, p in zip(dx, lp))
                   / mpmath.fsum(d * d for d in dx))
    return out


def references(name: str, argv: list[str], rows: list[dict]) -> list[dict]:
    """The mpmath value of every computed cell, row by row."""
    if name == "grouped_ratio_table":  # columns K<k>: P(X > k) over the base Gaussian's
        base = {col: mpmath.erfc(mpmath.mpf(col[1:]) / mpmath.sqrt(2)) / 2
                for col in rows[0] if col not in INPUTS}
        return [{col: tail(row["a"], row["N"], float(col[1:])) / b for col, b in base.items()}
                for row in rows]
    a = branching.parse_schedule_spec(argv[2]).a
    if name == "grouped_density":
        return [{col: density(a, int(col[3:]), row["x"]) for col in row if col not in INPUTS}
                for row in rows]
    if argv[0] == "exceed":
        out = []
        for row in rows:
            p = tail(a, row["N"], row["K"])
            out.append({"p_exceed": p, "ln_p": mpmath.log(p)})
        return out
    log_p = [mpmath.log(tail(a, row["N"], row["x"])) for row in rows]
    return [{"ln_p": lp, "local_slope": s}
            for lp, s in zip(log_p, slopes([row["ln_x"] for row in rows], log_p))]


def main() -> int:
    bad = 0
    print("case,row,column,old,new,mpmath,verdict")
    for name, argv in CASES.items():
        old_rows, new_rows = run(argv, old=True), run(argv, old=False)
        refs = references(name, argv, new_rows)
        for i, (old, new, ref) in enumerate(zip(old_rows, new_rows, refs)):
            if any(old[c] != new[c] for c in old if c in INPUTS):
                print(f"{name},{i},input cells differ: {old} {new}")
                bad += 1
            for col, r in ref.items():
                o, w = cli._format_value(old[col]), cli._format_value(new[col])
                if o == w:
                    verdict = "same"
                elif abs(mpmath.mpf(w) - r) <= abs(mpmath.mpf(o) - r):
                    verdict = "closer"
                else:
                    verdict = "FARTHER"
                    bad += 1
                print(f"{name},{i},{col},{o},{w},{mpmath.nstr(r, 16)},{verdict}")
    print(f"{bad} cell(s) moved away" if bad else "every changed cell moved closer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
