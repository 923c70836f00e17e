"""Overflow-checked exact integer arithmetic for subset counts.

Every index value, binomial coefficient and move delta in this package is
required to fit a signed 128-bit integer; anything larger is reported as an
error rather than silently widened, so serialized values stay portable
across runtimes that lack big integers.
"""

from __future__ import annotations

import math

I128_MAX = 2**127 - 1
I128_MIN = -(2**127)


class CountOverflowError(ArithmeticError):
    """A count left the signed 128-bit range."""


def checked(value: int) -> int:
    """Return *value* unchanged, or raise if it exceeds the i128 range."""
    if value > I128_MAX or value < I128_MIN:
        raise CountOverflowError(f"{value} exceeds the signed 128-bit range")
    return value


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 outside 0 <= k <= n; values outside the
    signed 128-bit range raise CountOverflowError."""
    if n < 0:
        raise ValueError("binomial: n must be non-negative")
    if k < 0 or k > n:
        return 0
    value = math.comb(n, k)
    # inline check: a call to checked() here would double the cost of this
    # innermost call of sw_k; C(n, k) >= 0, so only the upper bound can fail
    if value > I128_MAX:
        raise CountOverflowError(f"C({n},{k}) exceeds the signed 128-bit range")
    return value
