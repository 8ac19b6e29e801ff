"""Argument checks and double-range limits shared by every module of the package."""

from __future__ import annotations

import math
import sys

MAX_MOMENT_ORDER = 8
LN_MAX = math.log(sys.float_info.max)
"""Largest argument at which math.exp is finite; it raises above this."""


class UnsupportedOrderError(ValueError):
    """Moment order outside the supported range."""


def check_rate(a: float, name: str = "rate") -> None:
    if not (math.isfinite(a) and 0.0 <= a < 1.0):
        raise ValueError(f"{name} must lie in [0, 1), got {a!r}")


def check_depth(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {n!r}")


def check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")


def check_order(order, lowest: int = 0) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise UnsupportedOrderError(f"moment order must be an integer, got {order!r}")
    if not lowest <= order <= MAX_MOMENT_ORDER:
        raise UnsupportedOrderError(
            f"moment order {order} outside supported range {lowest}..{MAX_MOMENT_ORDER}"
        )


def power(x: float, k: int, name: str) -> float:
    """x**k, whose OverflowError names x and k rather than an errno tuple."""
    try:
        return x**k
    except OverflowError:
        raise OverflowError(f"{name}^{k} with {name} = {x!r}") from None
