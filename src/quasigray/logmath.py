"""Exact integer logarithm helpers.

Bound checks in this package compare exact rationals against values like
``6*log2(d)``, which are irrational for most d. The comparisons here are
certified with exact arithmetic (the integer part of the logarithm, then
correctly rounded logarithms under a proved error bound), so a reported
pass or fail is never a float artifact.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from .probes import UsageError


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
    v = d
    for _ in range(k):
        if v < 1:
            return False
        v = v.bit_length() - 1
    return v >= threshold


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

    For arg a power of two the comparison is direct. Otherwise log2(arg)
    is irrational and lies strictly between f = floor(log2(arg)) and f + 1,
    so a value outside that interval is decided by the integer part alone;
    :func:`_ln_sign` decides the rest with rounded logarithms and a proved
    error bound.
    """
    if arg < 1:
        raise UsageError(f"log2 argument must be >= 1, got {arg}")
    f = arg.bit_length() - 1
    if is_power_of_two(arg):
        return (value > f) - (value < f)
    if value <= f:
        return -1
    if value >= f + 1:
        return 1
    return _ln_sign(value.numerator, value.denominator, arg)


def _ln_sign(num: int, den: int, arg: int) -> int:
    """Sign of ``num*ln(2) - den*ln(arg)`` for positive num and den and arg
    not a power of two, where it is never 0.

    ``Decimal.ln`` rounds correctly, so each logarithm taken to ``prec``
    digits is within half a unit in its last place of the true value, which
    is at most ``x * 10**(1 - prec)`` for the rounded value x. The products
    and the difference are then formed exactly, and the sign is taken only
    when the gap exceeds the sum of both error bounds; otherwise the
    precision doubles.
    """
    prec = 40
    while True:
        ctx = Context(prec=prec, rounding=ROUND_HALF_EVEN)
        a = num * Fraction(Decimal(2).ln(ctx))
        b = den * Fraction(Decimal(arg).ln(ctx))
        if abs(a - b) > (a + b) / 10 ** (prec - 1):
            return 1 if a > b else -1
        prec *= 2
