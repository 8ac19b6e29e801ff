"""Frozen bits of log_exceedance and convexity_ratio.

The CLI prints 13 significant digits, so the golden CSVs cannot see a change
in the last bits of a tail. This file stores float.hex of every tail value
behind the README and golden tail cases (tests/golden/tail_bits.json), each
computed one threshold at a time, and requires the same bits.

To regenerate after an intended change:
    PYTHONPATH=src python tests/test_tail_bits.py
"""

import json
from pathlib import Path

import pytest

from branchvol.branching import ErrorSchedule, GaussianBase, build_mixture, group_mixture
from branchvol.mixstats import convexity_ratio, log_exceedance, loglog_series

BITS = Path(__file__).resolve().parent / "golden" / "tail_bits.json"
BASE = GaussianBase(0.0, 1.0)


def _exceed(mix, ks):
    return [log_exceedance(mix, k) for k in ks]


def _loglog(mix, x_min, x_max, points):
    return loglog_series(mix, x_min, x_max, points).log_p.tolist()


def _ratios(rates, depths, ks):
    return [convexity_ratio(group_mixture(BASE, a, n), k)
            for a in rates for n in depths for k in ks]


def _bleed(a1, lam, n):
    return build_mixture(BASE, ErrorSchedule.bleed(a1, lam, n))


# name -> the values behind the golden of the same name (the README library
# example has no golden).
CASES = {
    "readme_library": lambda: [convexity_ratio(group_mixture(BASE, 0.1, 25), 10.0)],
    "readme_exceed": lambda: _exceed(group_mixture(BASE, 0.1, 8), [3.0, 5.0, 10.0]),
    "readme_ratio_table": lambda: _ratios([0.01, 0.1], [5, 10, 15, 20, 25], [3.0, 5.0, 10.0]),
    "readme_loglog": lambda: [v for n in (0, 5, 10, 25, 50)
                              for v in _loglog(group_mixture(BASE, 0.1, n), 2.0, 10.0, 120)],
    "bleed_exceed": lambda: _exceed(_bleed(0.2, 0.9, 12), [3.0, 10.0, 50.0]),
    "bleed_loglog": lambda: _loglog(_bleed(0.25, 0.8, 10), 2.0, 40.0, 12),
    "geometric_exceed": lambda: _exceed(
        build_mixture(BASE, ErrorSchedule.geometric(0.2, 16)), [3.0, 10.0, 50.0]),
    "grouped_exceed": lambda: _exceed(group_mixture(BASE, 0.1, 100_000), [3.0, 10.0]),
    "grouped_loglog": lambda: _loglog(group_mixture(BASE, 0.1, 10_000), 2.0, 12.0, 5),
    "grouped_ratio_table": lambda: _ratios([0.1], [301, 1000, 5000], [3.0, 5.0, 10.0]),
    "wide_bleed_exceed": lambda: _exceed(_bleed(0.2, 0.9, 15), [-3.0, 0.0, 3.0, 10.0, 50.0]),
    "wide_grouped_exceed": lambda: _exceed(group_mixture(BASE, 0.3, 30_000),
                                           [-2.0, 0.0, 3.0, 50.0]),
    "wide_bleed_loglog": lambda: _loglog(_bleed(0.3, 0.8, 14), 2.0, 50.0, 8),
    "wide18_bleed_exceed": lambda: _exceed(_bleed(0.2, 0.9, 18), [3.0, 10.0, 50.0]),
}


def _hex(name):
    return [float(v).hex() for v in CASES[name]()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_bits_unchanged(name):
    assert _hex(name) == json.loads(BITS.read_text())[name]


if __name__ == "__main__":
    BITS.write_text(json.dumps({name: _hex(name) for name in CASES}, indent=1) + "\n")
