"""Exact integer logarithm helpers.

Bound checks in this package compare exact rationals against values like
``6*log2(d)``, which are irrational for most d. The comparisons here are
certified with pure integer arithmetic (``2**a <= d**K`` style tests at an
escalating grid), so a reported pass or fail is never a float artifact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .probes import UsageError


def floor_log2(n: int) -> int:
    if n < 1:
        raise UsageError(f"floor_log2 requires n >= 1, got {n}")
    return n.bit_length() - 1


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def iterated_log_at_least(d: int, k: int, threshold: int) -> bool:
    """Exact test of ``log^(k)(d) >= threshold`` for integer threshold >= 1.

    Applying floor(log2) k times preserves the comparison because the
    unfolded thresholds (threshold, 2**threshold, ...) are all integers.
    """
    if d < 1:
        raise UsageError(f"iterated log requires d >= 1, got {d}")
    if k < 0 or threshold < 1:
        raise UsageError("k must be >= 0 and threshold >= 1")
    v = iterated_floor_log(d, k)
    return v is not None and v >= threshold


def iterated_floor_log(d: int, k: int) -> Optional[int]:
    """floor(log2) applied k times to d, or None once the value drops below 1
    before the last application."""
    v = d
    for _ in range(k):
        if v < 1:
            return None
        v = v.bit_length() - 1
    return v


def log_star(n: int) -> int:
    """Number of times log2 must be applied to n before the value is <= 1."""
    if n < 1:
        raise UsageError(f"log_star requires n >= 1, got {n}")
    c = 0
    p = 1
    while n > p:
        c += 1
        # n <= 2**p iff bit_length(n-1) <= p; avoids materializing 2**p
        # once p itself is a tower.
        if (n - 1).bit_length() <= p:
            return c
        p = 1 << p
    return c


def compare_with_log2(value: Fraction, arg: int) -> int:
    """Exact sign of ``value - log2(arg)``: -1, 0 or +1.

    For arg a power of two the comparison is direct. Otherwise log2(arg) is
    irrational, so equality is impossible: the grid rounds below separate
    any value that is not very close to it, and a round at k = den decides
    every value, because both grid points are then num itself and
    ``2**num`` never equals ``arg**den``.
    """
    if arg < 1:
        raise UsageError(f"log2 argument must be >= 1, got {arg}")
    if is_power_of_two(arg):
        exact = arg.bit_length() - 1
        return (value > exact) - (value < exact)
    if value <= 1:
        return -1  # non-power arg is >= 3, so log2(arg) > 1
    num, den = value.numerator, value.denominator
    k = 1
    while True:
        k = min(k, den)
        power = arg**k
        ceil_a = -((-num * k) // den)
        if (1 << ceil_a) <= power:  # ceil_a/k <= log2(arg), so value <= it too
            return -1
        floor_b = (num * k) // den
        if (1 << floor_b) >= power:  # floor_b/k >= log2(arg), so value >= it
            return 1
        k <<= 6
