"""Independent oracle for the benchmark's CLI calls.

It shares no code with branchvol. Enumerated mixtures are rebuilt from the
rates with ``np.multiply.outer`` (``np.add.outer`` for additive offsets);
constant-rate mixtures become n + 1 binomial classes weighted with
``gammaln``. Tails use scipy's ``log_ndtr`` and ``logsumexp``, densities a
log-space pdf sum, moments the weighted mean of ``scales**m``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, log_ndtr, logsumexp

# Relative tolerance on ln P, p, densities, moments and ratios. The program
# agreed with this oracle to 2e-16..2e-12 at the time the benchmark was
# written; CSV cells carry 13 significant digits.
RTOL = 1e-9
# A term changes a double-precision sum only if it is above half an ulp of it.
USEFUL_LOG_SHARE = math.log(2.0**-53)
# A validate estimate must lie within Z_LIMIT of the oracle's standard errors
# from the oracle's reference, and the printed standard error within SE_RTOL of
# the oracle's. The sample SE of the fourth moment at N=10 varies by about
# 8% (one standard deviation) between sampler seeds.
Z_LIMIT = 4.0
SE_RTOL = 0.25
_LN2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_CORRUPT_COLUMN = {"exceed": "ln_p", "loglog": "ln_p", "moments": "enumeration",
                   "validate": "reference", "density": 1, "ratio-table": 2}


class Tally:
    """Counts tail terms and the ones that change the log-sum-exp."""

    def __init__(self) -> None:
        self.terms = 0
        self.useful = 0

    def add(self, terms: np.ndarray, total: float) -> None:
        self.terms += terms.size
        if math.isfinite(total):
            self.useful += int(np.count_nonzero(terms - total > USEFUL_LOG_SHARE))


class _Mixture:
    """Log weights and log scales of the components, plus the base."""

    def __init__(self, sched: dict, n: int, base: dict) -> None:
        self.mu, self.sigma = base["mu"], base["sigma"]
        if sched["kind"] == "constant":
            a = sched["a"]
            j = np.arange(n + 1, dtype=np.float64)
            self.log_w = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) - n * _LN2
            self.log_s = j * math.log1p(a) + (n - j) * math.log1p(-a)
            return
        rates, additive = _rates(sched, n)
        if additive:
            offsets = np.zeros(1)
            for r in rates:
                offsets = np.add.outer(offsets, [r, -r]).ravel()
            scales = 1.0 + offsets
        else:
            scales = np.ones(1)
            for r in rates:
                scales = np.multiply.outer(scales, [1.0 + r, 1.0 - r]).ravel()
        self.log_w = np.full(scales.size, -n * _LN2)
        self.log_s = np.log(scales)

    def log_tail_terms(self, k: float) -> np.ndarray:
        delta = k - self.mu
        if delta == 0.0:
            return self.log_w - _LN2
        with np.errstate(over="ignore"):
            z = np.exp(math.log(abs(delta)) - math.log(self.sigma) - self.log_s)
        return self.log_w + log_ndtr(-z if delta > 0 else z)

    def log_tail(self, k: float, tally: Tally) -> float:
        terms = self.log_tail_terms(k)
        total = float(logsumexp(terms))
        tally.add(terms, total)
        return total

    def density(self, x: float) -> float:
        log_sd = math.log(self.sigma) + self.log_s
        with np.errstate(over="ignore"):
            z = (x - self.mu) * np.exp(-log_sd)
            terms = self.log_w - log_sd - _HALF_LN_2PI - 0.5 * z * z
        return math.exp(logsumexp(terms))

    def scale_moment(self, m: int) -> float:
        """E[scale^m] over the mixture."""
        return float(np.sum(np.exp(self.log_w + m * self.log_s)))

    def raw_moment(self, m: int) -> float:
        """E[X^m] for a centred mixture."""
        if m % 2:
            return 0.0
        return _double_factorial(m - 1) * self.sigma**m * self.scale_moment(m)


def _rates(sched: dict, n: int) -> tuple[list[float], bool]:
    kind = sched["kind"]
    if kind == "bleed":
        return [sched["a1"] * sched["lam"] ** i for i in range(n)], False
    if kind == "geometric":
        return [sched["a"] ** j for j in range(1, n + 1)], True
    if kind == "explicit":
        return list(sched["rates"]), False
    return [sched["a"]] * n, False


def _double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2))


def _limit_moment(sched: dict, sigma: float, order: int) -> float | None:
    """Infinite-depth moment where the program reports one, else None."""
    if sched["kind"] == "bleed" and order in (2, 4):
        product, r = 1.0, sched["a1"]
        while r > 1e-17:
            product *= 1.0 + r * r if order == 2 else 1.0 + 6.0 * r * r + r**4
            r *= sched["lam"]
        return sigma**2 * product if order == 2 else 3.0 * sigma**4 * product
    if sched["kind"] == "geometric" and order in (1, 2, 4):
        a = sched["a"]
        e_s2 = a * a / (1.0 - a * a)
        e_s4 = 3.0 * e_s2 * e_s2 - 2.0 * a**4 / (1.0 - a**4)
        return {1: 0.0, 2: sigma**2 * (1.0 + e_s2),
                4: 3.0 * sigma**4 * (1.0 + 6.0 * e_s2 + e_s4)}[order]
    return None


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


class _Checker:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def close(self, what: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> None:
        if got is None or want is None:
            if got is not want:
                self.problems.append(f"{what}: got {got!r}, want {want!r}")
            return
        if got == want or abs(got - want) <= atol + rtol * abs(want):
            return
        self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")


def _rows(chk: _Checker, text: str, columns: list[str], count: int) -> list[list[str]]:
    got_columns, rows = parse_csv(text)
    chk.equal("columns", got_columns, columns)
    chk.equal("row count", len(rows), count)
    if chk.problems:
        return []
    return rows


def _check_exceed(chk, call, text, tally) -> None:
    rows = _rows(chk, text, ["N", "K", "p_exceed", "ln_p"], len(call["depths"]) * len(call["k"]))
    it = iter(rows)
    for n in call["depths"]:
        mix = _Mixture(call["sched"], n, call["base"])
        for k in call["k"]:
            row = next(it, None)
            if row is None:
                return
            ln_p = mix.log_tail(k, tally)
            chk.equal("N", int(row[0]), n)
            chk.close(f"K (N={n})", _num(row[1]), k, rtol=1e-12)
            chk.close(f"ln_p (N={n}, K={k})", _num(row[3]), ln_p)
            chk.close(f"p_exceed (N={n}, K={k})", _num(row[2]), math.exp(ln_p),
                      rtol=RTOL * max(1.0, abs(ln_p)), atol=1e-300)


def _slopes(log_x: np.ndarray, log_p: np.ndarray, half: int = 2) -> list[float]:
    out = []
    for i in range(log_x.size):
        lo, hi = max(0, i - half), min(log_x.size, i + half + 1)
        out.append(float(np.polyfit(log_x[lo:hi], log_p[lo:hi], 1)[0]))
    return out


def _check_loglog(chk, call, text, tally) -> None:
    x_lo, x_hi, points = call["x"]
    rows = _rows(chk, text, ["N", "x", "ln_x", "ln_p", "local_slope"],
                 len(call["depths"]) * points)
    log_x = np.linspace(math.log(x_lo), math.log(x_hi), points)
    for d, n in enumerate(call["depths"]):
        block = rows[d * points:(d + 1) * points]
        if len(block) < points:
            return
        mix = _Mixture(call["sched"], n, call["base"])
        got_lp = np.array([_num(r[3]) for r in block])
        got_lx = np.array([_num(r[2]) for r in block])
        for i, row in enumerate(block):
            chk.equal("N", int(row[0]), n)
            chk.close(f"x[{i}]", _num(row[1]), math.exp(log_x[i]), rtol=1e-12)
            chk.close(f"ln_x[{i}]", _num(row[2]), float(log_x[i]), rtol=1e-12, atol=1e-12)
            chk.close(f"ln_p[{i}] (N={n})", _num(row[3]), mix.log_tail(math.exp(log_x[i]), tally))
        # Slopes are checked against a least-squares fit of the printed
        # values, whose 13 digits bound the agreement.
        scale = float(np.max(np.abs(got_lp)))
        for i, want in enumerate(_slopes(got_lx, got_lp)):
            chk.close(f"local_slope[{i}] (N={n})", _num(block[i][4]), want,
                      rtol=1e-7, atol=1e-9 * scale)


def _check_density(chk, call, text, tally) -> None:
    lo, hi, step = call["x"]
    grid = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    depths = call["depths"]
    rows = _rows(chk, text, ["x"] + [f"f_N{n}" for n in depths], grid.size)
    mixes = [_Mixture(call["sched"], n, call["base"]) for n in depths]
    for row, x in zip(rows, grid):
        chk.close("x", _num(row[0]), float(x), rtol=1e-12, atol=1e-12)
        for cell, n, mix in zip(row[1:], depths, mixes):
            chk.close(f"f_N{n}({x:.4g})", _num(cell), mix.density(float(x)), atol=1e-300)


def _check_moments(chk, call, text, tally) -> None:
    orders = call["orders"]
    rows = _rows(chk, text, ["order", "closed_form", "enumeration", "rel_diff", "limit_inf"],
                 len(orders))
    sched, sigma = call["sched"], call["base"]["sigma"]
    mix = _Mixture(sched, sched["n"], call["base"])
    for row, m in zip(rows, orders):
        want = mix.raw_moment(m)
        # Odd moments of a centred mixture are zero up to rounding of terms
        # of the size of the even moment below them.
        atol = 1e-12 * mix.raw_moment(m - 1) if m % 2 else 0.0
        chk.equal("order", int(row[0]), m)
        chk.close(f"enumeration m={m}", _num(row[2]), want, atol=atol)
        closed = _num(row[1])
        if sched["kind"] != "geometric" or m in (1, 2, 4):
            if closed is None:
                chk.problems.append(f"closed_form m={m} missing")
            else:
                chk.close(f"closed_form m={m}", closed, want, atol=atol)
        rel = _num(row[3])
        if rel is not None and rel > RTOL:
            chk.problems.append(f"rel_diff m={m} is {rel!r}")
        chk.close(f"limit_inf m={m}", _num(row[4]), _limit_moment(sched, sigma, m), atol=atol)


def _check_ratio_table(chk, call, text, tally) -> None:
    ks = call["k"]
    rows = _rows(chk, text, ["a", "N"] + [f"K{k:.12g}" for k in ks],
                 len(call["rates"]) * len(call["depths"]))
    it = iter(rows)
    for a in call["rates"]:
        zero = _Mixture({"kind": "constant", "a": a}, 0, call["base"])
        for n in call["depths"]:
            row = next(it, None)
            if row is None:
                return
            mix = _Mixture({"kind": "constant", "a": a}, n, call["base"])
            chk.close("a", _num(row[0]), a, rtol=1e-12)
            chk.equal("N", int(row[1]), n)
            for cell, k in zip(row[2:], ks):
                log_ratio = mix.log_tail(k, tally) - zero.log_tail(k, tally)
                chk.close(f"ratio a={a} N={n} K={k}", _num(cell), math.exp(log_ratio),
                          rtol=RTOL * max(1.0, abs(log_ratio)))


def _check_validate(chk, call, text, tally) -> None:
    """Checks every Monte Carlo estimate against the oracle's own reference
    and standard error, not against the figures the program prints."""
    sched, base = call["sched"], call["base"]
    mix = _Mixture(sched, sched["n"], base)
    n = call["n_samples"]
    targets = []
    for m in call["orders"]:
        ref = mix.raw_moment(m)
        targets.append(("moment", float(m), ref,
                        math.sqrt(max(0.0, mix.raw_moment(2 * m) - ref * ref) / n)))
    for k in call["k"]:
        p = math.exp(mix.log_tail(k, tally))
        targets.append(("exceedance", k, p, math.sqrt(p * (1.0 - p) / n)))
    rows = _rows(chk, text, ["kind", "key", "estimate", "se", "reference", "z", "reliable",
                             "passed"], len(targets))
    for row, (kind, key, ref, se_ref) in zip(rows, targets):
        what = f"{kind} {key:.6g}"
        chk.equal(f"{what} kind", row[0], kind)
        chk.close(f"{what} key", _num(row[1]), key, rtol=1e-12)
        atol = 1e-12 * mix.raw_moment(int(key) - 1) if kind == "moment" and key % 2 else 0.0
        chk.close(f"{what} reference", _num(row[4]), ref, atol=atol)
        est, se = _num(row[2]), _num(row[3])
        if abs(est - ref) > Z_LIMIT * se_ref:
            chk.problems.append(f"{what} estimate {est!r} is {abs(est - ref) / se_ref:.3g} "
                                f"standard errors from {ref!r}")
        chk.close(f"{what} se", se, se_ref, rtol=SE_RTOL)
        chk.equal(f"{what} reliable", row[6], "true")
        if se > 0:
            chk.close(f"{what} z", _num(row[5]), (est - _num(row[4])) / se, rtol=1e-6, atol=1e-9)
        chk.equal(f"{what} passed", row[7], "true")


_CHECKS = {"exceed": _check_exceed, "loglog": _check_loglog, "density": _check_density,
           "moments": _check_moments, "ratio-table": _check_ratio_table,
           "validate": _check_validate}


def check(call: dict, rc, error, out: str, tally: Tally) -> list[str]:
    """Problems with one call's result; an empty list means it is correct.

    Every command must exit 0. The validate calls draw with fixed sampler
    seeds, on which a correct sampler passes every target with |z| < 2.5.
    """
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    chk = _Checker()
    try:
        _CHECKS[call["cmd"]](chk, call, out, tally)
    except (ValueError, IndexError, TypeError) as exc:
        chk.problems.append(f"unreadable output: {exc!r}")
    if rc != 0:
        chk.problems.insert(0, f"exit code {rc}, expected 0")
    return chk.problems


def corrupt(call: dict, out: str) -> str:
    """The output with one checked value changed in its seventh digit."""
    columns, rows = parse_csv(out)
    col = _CORRUPT_COLUMN[call["cmd"]]
    idx = col if isinstance(col, int) else columns.index(col)
    value = float(rows[0][idx])
    rows[0][idx] = repr(value * (1.0 + 1e-6) + 1e-6)
    return "\n".join(",".join(r) for r in [columns] + rows) + "\n"
