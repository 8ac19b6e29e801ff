"""Enumerated E[S^m] against 50-digit mpmath: np.power, product chain, truth.

The enumerated scale moments E[S^m] = mean of x^m over the 2^N double
scales x used to take each x^m with np.power, whose bits follow numpy's
SIMD dispatch; they now take the product chain 1 * x * ... * x of
mixstats._mean_scale_powers. For the moments goldens, the case whose bits
moved with the dispatch, and four more schedules, this prints every
E[S^m] of m = 2, 4, 6, 8 (the powers the moments command reads) that
changed: the np.power value (np.sum of np.power(scales, m), the bits the
leaves reproduced), the product-chain value and the exact mean of x^m
over the same doubles (integer power sums, divided out in 50-digit
mpmath), with the error of each in ulps; then the error in ulps of the
enumeration cell the command prints from it, (m - 1)!! sigma^m E[S^m] at
mu = 0. Last, per group of cases, the worst relative error of E[S^m].

Exits 1 if, in either group, the product chain's worst relative error
exceeds np.power's.

    python3 tools/moment_reference.py

Needs the test extras (pytest, mpmath). branchvol is imported from this
tree's src/, whatever PYTHONPATH holds. Takes about ten seconds.
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
sys.dont_write_bytecode = True  # leave no cache file in tests/
from test_golden import DISPATCH_CASES  # noqa: E402

from branchvol import GaussianBase, build_mixture, mixstats, parse_schedule_spec  # noqa: E402
from branchvol.branching import MAX_ENUMERATION_DEPTH  # noqa: E402
from branchvol.special import scale_mixture_moment  # noqa: E402

mpmath.mp.dps = 50
ORDERS = (2, 4, 6, 8)  # the powers the moments command reads
GROUPS = {  # the goldens past the enumeration ceiling have no scales to sum
    "goldens": [argv for argv in DISPATCH_CASES[:-1]
                if parse_schedule_spec(argv[2]).depth <= MAX_ENUMERATION_DEPTH],
    "more": DISPATCH_CASES[-1:] + [
        ["moments", "--schedule", schedule] for schedule in (
            "bleed:a1=0.193,lambda=0.931,N=16", "geometric:a=0.198,N=15",
            "bleed:a1=0.3,lambda=0.6,N=14", "constant:a=0.2,N=15")],
}


def exact_means(scales: np.ndarray) -> list[mpmath.mpf]:
    """The mean of x^m over the scales for each m of ORDERS: exact integer
    sums over one power-of-two denominator, divided out in mpmath."""
    ratios = [x.as_integer_ratio() for x in scales.tolist()]
    shifts = [q.bit_length() - 1 for _, q in ratios]
    top = max(shifts)
    out = []
    for m in ORDERS:
        total = sum(p**m << m * (top - s) for (p, _), s in zip(ratios, shifts))
        out.append(mpmath.mpf(total) / mpmath.mpf(2) ** (m * top) / scales.size)
    return out


def ulps(value: float, ref: mpmath.mpf) -> float:
    return float((mpmath.mpf(value) - ref) / math.ulp(float(ref)))


def main() -> int:
    worst = {}
    print("schedule,sigma,m,np_power,product_chain,mpmath,np_power_ulps,product_chain_ulps,"
          "moment_np_power_ulps,moment_product_chain_ulps")
    for group, argvs in GROUPS.items():
        worst[group] = [0.0, 0.0]
        for argv in argvs:
            schedule = argv[2]
            sigma = float(argv[argv.index("--sigma") + 1]) if "--sigma" in argv else 1.0
            assert "--mu" not in argv
            # E[S^m] does not depend on mu and sigma; constant rates are
            # enumerated here, where the CLI groups them, to take this path.
            mixture = build_mixture(GaussianBase(), parse_schedule_spec(schedule))
            scales = mixture.scales
            chain = mixstats._mean_scale_powers(mixture, ORDERS).tolist()
            for m, new, ref in zip(ORDERS, chain, exact_means(scales)):
                old = mixture.weight * float(np.sum(np.power(scales, m)))
                for side, value in enumerate((old, new)):
                    rel = abs(float((mpmath.mpf(value) - ref) / ref))
                    worst[group][side] = max(worst[group][side], rel)
                if old == new:
                    continue
                # The enumeration cell at mu = 0: (m - 1)!! sigma^m E[S^m].
                moment_ref = mpmath.fac2(m - 1) * mpmath.mpf(sigma) ** m * ref
                moment_ulps = [ulps(scale_mixture_moment(m, 0.0, sigma, lambda _, v=v: v),
                                    moment_ref) for v in (old, new)]
                print(f"{schedule},{sigma!r},{m},{old!r},{new!r},{mpmath.nstr(ref, 20)},"
                      f"{ulps(old, ref):.3f},{ulps(new, ref):.3f},"
                      f"{moment_ulps[0]:.3f},{moment_ulps[1]:.3f}")
    for group, (old, new) in worst.items():
        print(f"worst relative error of E[S^m], {group}: np.power {old:.3e}, "
              f"product chain {new:.3e}")
    return 1 if any(new > old for old, new in worst.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
