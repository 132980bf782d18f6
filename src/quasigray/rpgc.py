"""Recursive Partition Gray Code increment and decrement.

An even-length string splits into halves A (low indices) and B; a step
increments A unless A equals B, in which case it decrements B. An
odd-length string keeps bit 0 as a direction bit x and sweeps the tail W
up (x=0) and back down (x=1), turning x at the extreme states of W. Those
extremes are all-zeros (minimum) and 1 followed by zeros (maximum); the
test suite confirms this empirically for every dimension it enumerates.

Decrement is the mirror of increment, so one step function ``_step``
takes the direction: going down swaps the roles of the maximum and the
minimum, and tests whether A is the successor of B instead of equal to it.

Read orders are part of the contract, because the average-read behaviour
depends on them:

* equality comparisons read pairs (A[0],B[0]), (A[1],B[1]), ... and end
  at the first differing pair;
* the maximum-state test alternates across W's halves (a0, b0, a1, b1,
  ...), the same prefix the follow-up equality comparison consults;
* the minimum-state test reads W's second half first, zigzagging across
  its quarters, then the first half back to front, matching the prefix of
  the successor comparison used by the decrement.

Each of these scans is one ledger call with the charges of its loop of
single reads, ending right after the first bit that is not as wanted:
``read_zip`` for an equality comparison (with no wanted bits), the
maximum-state test and the quarter zigzag, and a zero test (``read_run``
wanting zeros) for each half of W's first half.

A call of ``_step`` or ``_compare_inc`` on at most ``_W0`` = 6 bits is one
more ledger call, ``read_table``. Its reads, its one flip or its result
depend only on the bits of its runs, so a table indexed by those bits can
stand for it. Each entry is filled on first use by running the plain call,
whose own small calls use the smaller tables. A step therefore makes
O(log^2 d) ledger calls, however many bits it reads: each of the log d
levels of the recursion may compare O(log d) levels of halves, and every
level below 6 bits is a single call.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from typing import Callable, Tuple

from .probes import BitState, CounterSpec, ProbeLedger, field_is_zero


def _equal(s: BitState, led: ProbeLedger, off_a: int, off_b: int, n: int) -> bool:
    return led.read_zip(s, off_a, off_b, n)


def _is_max(s: BitState, led: ProbeLedger, off: int, n: int) -> bool:
    # target is 1 followed by zeros; n is even (the tail of an odd string)
    h = n >> 1
    return led.read_zip(s, off, off + h, h, 1, 0)


def _is_min(s: BitState, led: ProbeLedger, off: int, n: int) -> bool:
    # all-zeros test; B half first (zigzag across its quarters), then A's
    # second half, then A's first half
    h = n >> 1
    b = off + h
    q = h >> 1
    if not led.read_zip(s, b, b + q, q, 0, 0):
        return False
    if h & 1 and led.read(s, b + h - 1):
        return False
    return field_is_zero(s, led, off + q, h - q) and field_is_zero(s, led, off, q)


# Calls of _step and _compare_inc on at most _W0 bits are served from tables
# through ProbeLedger.read_table, each table built on first use. An entry
# packs 13 bits at most, so an unsigned short holds it: a step's _W0 read
# bits, a result bit and _W0 flip bits, or a comparison's 2 * _W0 read bits
# and its result bit.
_W0 = 6


@lru_cache(maxsize=None)
def _step_table(n: int, up: bool) -> Tuple[array, Callable]:
    return array("H", bytes(2 << n)), partial(_plain_step, off=0, n=n, up=up)


@lru_cache(maxsize=None)
def _compare_table(n: int) -> Tuple[array, Callable]:
    return array("H", bytes(2 << 2 * n)), partial(_plain_compare_inc, off_a=0, off_b=n, n=n)


def _compare_inc(s: BitState, led: ProbeLedger, off_a: int, off_b: int, n: int) -> bool:
    """True iff A equals the successor of B."""
    if n <= _W0:
        table, fill = _compare_table(n)
        return led.read_table(s, off_a, n, table, fill, off_b)
    return _plain_compare_inc(s, led, off_a, off_b, n)


def _plain_compare_inc(s: BitState, led: ProbeLedger, off_a: int, off_b: int, n: int) -> bool:
    if n == 1:
        return led.read(s, off_a) != led.read(s, off_b)
    if n & 1 == 0:
        h = n >> 1
        if _equal(s, led, off_b, off_b + h, h):
            # incrementing B decrements B2, so A1 must equal B1
            if not _equal(s, led, off_a, off_b, h):
                return False
            return _compare_inc(s, led, off_b + h, off_a + h, h)
        if not _equal(s, led, off_a + h, off_b + h, h):
            return False
        return _compare_inc(s, led, off_a, off_b, h)
    # odd length: B = [x, W]
    m = n - 1
    if led.read(s, off_b) == 0:
        if _is_max(s, led, off_b + 1, m):
            # successor of B sets x, leaving W alone
            return led.read(s, off_a) == 1 and _equal(s, led, off_a + 1, off_b + 1, m)
        return led.read(s, off_a) == 0 and _compare_inc(
            s, led, off_a + 1, off_b + 1, m
        )
    if _is_min(s, led, off_b + 1, m):
        # successor of B is all zeros
        return led.read(s, off_a) == 0 and field_is_zero(s, led, off_a + 1, m)
    # successor of B decrements W, so W must be the successor of A's tail
    return led.read(s, off_a) == 1 and _compare_inc(s, led, off_b + 1, off_a + 1, m)


def _step(s: BitState, led: ProbeLedger, off: int, n: int, up: bool) -> None:
    """One step of the code on bits [off, off + n): forward when ``up``,
    backward otherwise."""
    if n <= _W0:
        table, fill = _step_table(n, up)
        led.read_table(s, off, n, table, fill)
    else:
        _plain_step(s, led, off, n, up)


def _plain_step(s: BitState, led: ProbeLedger, off: int, n: int, up: bool) -> None:
    # each rule's mirror swaps the roles of the extreme states (odd n) or of
    # the two comparisons (even n)
    if n == 1:
        led.write(s, off, led.read(s, off) ^ 1)
        return
    if n & 1:
        # W moves forward on a forward step with x = 0 or a backward one with x = 1
        x = led.read(s, off)
        forward = up != x
        if (_is_max if forward else _is_min)(s, led, off + 1, n - 1):
            led.write(s, off, x ^ 1)
        else:
            _step(s, led, off + 1, n - 1, forward)
        return
    h = n >> 1
    # forward: A = B moves B back, else A forward; backward: A = B + 1 moves
    # B forward, else A back
    if (_equal if up else _compare_inc)(s, led, off, off + h, h):
        _step(s, led, off + h, h, not up)
    else:
        _step(s, led, off, h, up)


def rpgc_increment(state: BitState, ledger: ProbeLedger) -> None:
    """One step forward; writes exactly one bit."""
    _step(state, ledger, 0, state.dim, True)


def rpgc_decrement(state: BitState, ledger: ProbeLedger) -> None:
    """Exact inverse of :func:`rpgc_increment`; writes exactly one bit."""
    _step(state, ledger, 0, state.dim, False)


def make_rpgc_counter(dim: int) -> CounterSpec:
    return CounterSpec(
        name="rpgc",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=rpgc_increment,
        claimed_c=1,
    )
