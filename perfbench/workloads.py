"""Seeded call lists for the branchvol benchmark.

Each workload is a fixed template of slots: command, schedule kind, depth,
grid size and nominal rates and thresholds. The template spans the input
range the workload is meant to cover. The seed jitters every nominal number
by a few percent and shuffles the slot order, so two seeds give different
inputs of nearly the same cost and run-to-run spread stays small. The
program receives only the argv strings; every number is formatted first and
parsed back, so the oracle sees exactly the values the program parses.

This module imports neither numpy nor branchvol: the parent (oracle) and
the child (program under test) both import it.
"""

from __future__ import annotations

import hashlib
import json
import random

WHY = {
    "enum-tails": (
        "exceed and loglog on enumerated bleed, explicit and geometric schedules at "
        "N 10-15 out to 50 sigma: the per-component tail kernel (log_erfc) does the work"
    ),
    "deep-build": (
        "moments and 9-point density at N 17-21 plus validate with 2e6 draws: the "
        "sign-matrix scale build and Monte Carlo gather dominate, tails barely run"
    ),
    "binomial": (
        "many small constant-rate calls (exceed to n=1e5, loglog, ratio-table, density "
        "to n=2000) over n+1 classes: no scale build and no Monte Carlo"
    ),
}

# One small call per workload that runs the same code paths untimed, so
# imports and first-call caches are warm before the timed passes start.
WARMUP = {
    "enum-tails": ["exceed", "--schedule", "bleed:a1=0.2,lambda=0.9,N=8", "--k", "3,45"],
    "deep-build": ["moments", "--schedule", "bleed:a1=0.2,lambda=0.9,N=12"],
    "binomial": ["exceed", "--schedule", "constant:a=0.1,N=100", "--k", "3"],
}

JITTER = 0.05  # relative spread of every seeded number around its nominal value


class _Draw:
    """Draws formatted numbers: returns the argv text and the float it parses to."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def jit(self, nominal: float, digits: int = 4) -> tuple[str, float]:
        text = f"{nominal * self.rng.uniform(1 - JITTER, 1 + JITTER):.{digits}g}"
        return text, float(text)

    def base(self, centred: bool = False) -> tuple[list[str], dict]:
        sig_s, sig = self.jit(1.0, 3)
        if centred:  # moments are checked in the centred form
            return ["--sigma", sig_s], {"mu": 0.0, "sigma": sig}
        mu_s = f"{self.rng.uniform(-0.1, 0.1):.3g}"
        return [f"--mu={mu_s}", "--sigma", sig_s], {"mu": float(mu_s), "sigma": sig}

    def schedule(self, kind: str, n: int, rate: float, lam: float = 0.0) -> tuple[str, dict]:
        """Bleed (rate = a1), geometric (rate = a), explicit (a ramp from rate
        down to rate/10) or constant (rate = a) schedule at depth n."""
        if kind == "bleed":
            a1_s, a1 = self.jit(rate, 3)
            lam_s, lam = self.jit(lam, 3)
            return f"bleed:a1={a1_s},lambda={lam_s},N={n}", {
                "kind": kind, "n": n, "a1": a1, "lam": lam}
        if kind == "explicit":
            texts = [self.jit(rate * (1 - 0.9 * j / max(1, n - 1)), 3)[0] for j in range(n)]
            return "explicit:" + ",".join(texts), {
                "kind": kind, "n": n, "rates": [float(t) for t in texts]}
        a_s, a = self.jit(rate, 3)
        return f"{kind}:a={a_s},N={n}", {"kind": kind, "n": n, "a": a}

    def thresholds(self, base: dict, multiples) -> tuple[str, list[float]]:
        """Thresholds at mu + m sigma around each nominal multiple m."""
        texts = [f"{base['mu'] + base['sigma'] * self.jit(m)[1]:.4g}" for m in multiples]
        return ",".join(texts), [float(t) for t in texts]


def _call(cmd: str, argv: list[str], **params) -> dict:
    return {"cmd": cmd, "argv": [cmd] + argv, **params}


def _exceed(d: _Draw, sched: tuple[str, dict], multiples, depths=None) -> dict:
    b_argv, base = d.base()
    k_text, ks = d.thresholds(base, multiples)
    argv = ["--schedule", sched[0], "--k", k_text] + b_argv
    if depths is not None:
        argv += ["--n-list", ",".join(map(str, depths))]
    return _call("exceed", argv, base=base, sched=sched[1],
                 depths=depths or [sched[1]["n"]], k=ks)


def _loglog(d: _Draw, sched: tuple[str, dict], lo: float, hi: float, points: int) -> dict:
    b_argv, base = d.base()
    lo_s, x_lo = d.jit(lo, 3)
    hi_s, x_hi = d.jit(hi, 3)
    return _call("loglog", ["--schedule", sched[0], "--x", f"{lo_s}:{hi_s}:{points}"]
                 + b_argv, base=base, sched=sched[1], depths=[sched[1]["n"]],
                 x=[x_lo, x_hi, points])


def _density(d: _Draw, sched: tuple[str, dict], points: int, depths=None) -> dict:
    # Symmetric grid of `points` points; the step is a short decimal so the
    # CLI's rounded point count is exact.
    b_argv, base = d.base()
    half = (points - 1) // 2
    step_s, step = d.jit(4.0 / half, 2)
    lo, hi = f"{-half * step:.6g}", f"{half * step:.6g}"
    argv = ["--schedule", sched[0], f"--x={lo}:{hi}:{step_s}"] + b_argv
    if depths is not None:
        argv += ["--n-list", ",".join(map(str, depths))]
    return _call("density", argv, base=base, sched=sched[1],
                 depths=depths or [sched[1]["n"]], x=[float(lo), float(hi), step])


def _moments(d: _Draw, sched: tuple[str, dict]) -> dict:
    b_argv, base = d.base(centred=True)
    return _call("moments", ["--schedule", sched[0]] + b_argv, base=base,
                 sched=sched[1], orders=list(range(1, 9)))


def _validate(d: _Draw, n: int, rate: float, sampler_seed: int) -> dict:
    # The rate and the sampler seed are fixed and only sigma is jittered, which
    # scales every draw and target alike: the z of each target is the same
    # for every benchmark seed, and so is the sampler's verdict.
    b_argv, base = d.base(centred=True)
    sched = f"constant:a={rate},N={n}", {"kind": "constant", "n": n, "a": rate}
    argv = ["--schedule", sched[0], "--n-samples", "2000000", "--seed", str(sampler_seed)]
    return _call("validate", argv + b_argv, base=base, sched=sched[1],
                 n_samples=2_000_000, orders=[1, 2, 3, 4],
                 k=[base["mu"] + base["sigma"] * m for m in (1.0, 2.0, 3.0)])


def _ratio_table(d: _Draw, rate: float, depths) -> dict:
    b_argv, base = d.base()
    a_s, a = d.jit(rate, 3)
    k_text, ks = d.thresholds({"mu": 0.0, "sigma": base["sigma"]}, (3.0, 5.0, 10.0))
    argv = ["--a", a_s, "--n-list", ",".join(map(str, depths)), "--k-list", k_text]
    return _call("ratio-table", argv + b_argv, base=base, rates=[a], depths=list(depths), k=ks)


# Threshold multiples of sigma: body, far tail, and past the point where
# erfc underflows for the median component (about 37.5 sigma).
_TAIL_K = (3.0, 10.0, 50.0)


def _enum_tails(d: _Draw) -> list[dict]:
    calls = [_exceed(d, d.schedule(*slot), _TAIL_K) for slot in (
        ("bleed", 10, 0.25, 0.7), ("bleed", 12, 0.2, 0.9), ("bleed", 13, 0.15, 0.8),
        ("bleed", 15, 0.2, 0.9), ("explicit", 11, 0.3), ("explicit", 12, 0.2),
        ("explicit", 14, 0.25), ("geometric", 10, 0.3), ("geometric", 12, 0.1),
        ("geometric", 13, 0.2), ("geometric", 14, 0.15))]
    calls += [_loglog(d, d.schedule(*slot), 2.0, 50.0, points) for *slot, points in (
        ("bleed", 10, 0.2, 0.9, 10), ("explicit", 10, 0.25, 0.0, 8),
        ("geometric", 11, 0.2, 0.0, 8), ("bleed", 11, 0.3, 0.6, 6))]
    return calls


def _deep_build(d: _Draw) -> list[dict]:
    calls = [_moments(d, d.schedule(*slot)) for slot in (
        ("bleed", 21, 0.2, 0.9), ("bleed", 19, 0.15, 0.8), ("explicit", 18, 0.25),
        ("geometric", 18, 0.2), ("bleed", 17, 0.25, 0.7), ("explicit", 17, 0.3),
        ("geometric", 17, 0.1))]
    calls += [_density(d, d.schedule(*slot), 9) for slot in (
        ("bleed", 19, 0.2, 0.9), ("explicit", 18, 0.2), ("geometric", 18, 0.15),
        ("bleed", 17, 0.1, 0.8), ("explicit", 17, 0.25), ("geometric", 17, 0.3))]
    calls += [_validate(d, n, rate, seed)
              for n, rate, seed in ((6, 0.2, 1), (8, 0.1, 2), (10, 0.15, 3))]
    return calls


def _binomial(d: _Draw) -> list[dict]:
    # (n, rate, threshold count): small n make up most calls; five calls of
    # 0.2-0.3 s (n >= 2e4 tails and the two deepest loglog series) make up
    # most of the time and the top of the latency distribution.
    calls = [_exceed(d, d.schedule("constant", n, rate), _TAIL_K[:n_k]) for n, rate, n_k in (
        (10, 0.1, 3), (30, 0.2, 3), (100, 0.05, 3), (300, 0.01, 2), (1000, 0.1, 2),
        (1000, 0.01, 1), (3000, 0.1, 1), (10_000, 0.1, 1), (20_000, 0.01, 1),
        (30_000, 0.01, 1), (100_000, 0.1, 1))]
    # Several depths in one call, as in the README density overlay.
    calls.append(_exceed(d, d.schedule("constant", 50, 0.1), (5.0, 10.0), [0, 5, 25, 50]))
    calls += [_loglog(d, d.schedule("constant", n, rate), 2.0, 12.0, points)
              for n, rate, points in ((100, 0.2, 8), (1000, 0.1, 8), (3000, 0.05, 8),
                                      (10_000, 0.1, 5))]
    calls += [_ratio_table(d, rate, depths) for rate, depths in (
        (0.01, (5, 15, 30, 45)), (0.01, (10, 20, 40, 50)), (0.1, (5, 15, 30, 45)),
        (0.1, (10, 20, 40, 50)))]
    calls.append(_call("ratio-table", [], base={"mu": 0.0, "sigma": 1.0},
                       rates=[0.01, 0.1], depths=[5, 10, 15, 20, 25], k=[3.0, 5.0, 10.0]))
    # Paper-range rates at n 500 and 2000 overflow inside density_constant_a
    # and raise RuntimeWarnings; they are kept, counted and not filtered.
    calls += [_density(d, d.schedule("constant", n, rate), points) for n, rate, points in (
        (500, 0.1, 17), (500, 0.2, 9), (2000, 0.1, 9), (2000, 0.2, 9), (200, 0.05, 17))]
    calls.append(_density(d, d.schedule("constant", 50, 0.1), 9, [0, 10, 50]))
    return calls


_TEMPLATES = {"enum-tails": _enum_tails, "deep-build": _deep_build, "binomial": _binomial}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded, shuffled call list of one workload."""
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_TEMPLATES)}")
    d = _Draw(seed)
    calls = _TEMPLATES[workload](d)
    d.rng.shuffle(calls)
    return calls


def digest(calls: list[dict]) -> str:
    """sha256 of the argv lists, the only thing the program sees."""
    text = json.dumps([c["argv"] for c in calls], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
