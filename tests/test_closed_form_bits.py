"""Frozen bits of the closed-form and enumerated moments.

tests/golden/closed_form_bits.json stores float.hex of every moment value
that the tests, acceptance criteria c03, c04, c09 and c10 and the README
library quick start read, and this file requires the same bits from the
two moment entry points. Its "schedule_moments" section holds the closed
forms and limits, its "mixture_raw_moments" section the sums over
enumerated and grouped mixtures, each under the name of the per-regime
function that gave them before those two replaced it. A row is mu,
sigma, the schedule (kind, depth, a, lam, listed rates and mode; a depth of
"inf" is the limit, and kind "grouped" the binomial classes of a constant
rate) and its (order, bits) pairs.
"""

import json
from pathlib import Path

from branchvol.branching import ErrorSchedule, GaussianBase, Mode, build_mixture, group_mixture
from branchvol.closedform import schedule_moments
from branchvol.mixstats import mixture_raw_moments
from branchvol.special import INFINITY

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "closed_form_bits.json")
                    .read_text())


def _rows(section):
    # (mu, sigma, (kind, depth, a, lam, listed, mode), orders, bits) of each row.
    for rows in GOLDEN[section].values():
        for mu, sigma, *rule, pairs in rows:
            yield mu, sigma, rule, [k for k, _ in pairs], [bits for _, bits in pairs]


def _schedule(kind, depth, a, lam, listed, mode):
    return ErrorSchedule(kind, 0 if depth == "inf" else depth, a, lam, tuple(listed), Mode(mode))


def test_closed_form_bits():
    for mu, sigma, rule, orders, bits in _rows("schedule_moments"):
        n = INFINITY if rule[1] == "inf" else rule[1]
        got = schedule_moments(_schedule(*rule), orders, mu, sigma, n)
        assert [v.hex() for v in got] == bits, (mu, sigma, rule)


def test_mixture_moment_bits():
    for mu, sigma, rule, orders, bits in _rows("mixture_raw_moments"):
        kind, depth, a = rule[:3]
        base = GaussianBase(mu, sigma)
        mix = (group_mixture(base, a, depth) if kind == "grouped"
               else build_mixture(base, _schedule(*rule)))
        got = mixture_raw_moments(mix, orders)
        assert [v.hex() for v in got] == bits, (mu, sigma, rule)
