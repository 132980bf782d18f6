"""Recursive Partition Gray Code increment and decrement.

An even-length string splits into halves A (low indices) and B; a step
increments A unless A equals B, in which case it decrements B. An
odd-length string keeps bit 0 as a direction bit x and sweeps the tail W
up (x=0) and back down (x=1), turning x at the extreme states of W. Those
extremes are all-zeros (minimum) and 1 followed by zeros (maximum); the
test suite confirms this empirically for every dimension it enumerates.

Read orders are part of the contract, because the average-read behaviour
depends on them:

* equality comparisons read pairs (A[0],B[0]), (A[1],B[1]), ... and stop
  at the first differing pair;
* the maximum-state test alternates across W's halves (a0, b0, a1, b1,
  ...), the same prefix the follow-up equality comparison consults;
* the minimum-state test reads W's second half first, zigzagging across
  its quarters, then the first half back to front, matching the prefix of
  the successor comparison used by the decrement.
"""

from __future__ import annotations

from .probes import BitState, CounterSpec, ProbeLedger, UsageError, field_is_zero


def _equal(s: BitState, led: ProbeLedger, off_a: int, off_b: int, n: int) -> bool:
    for i in range(n):
        if led.read(s, off_a + i) != led.read(s, off_b + i):
            return False
    return True


def _is_max(s: BitState, led: ProbeLedger, off: int, n: int) -> bool:
    # target is 1 followed by zeros; n is even (the tail of an odd string)
    h = n >> 1
    for i in range(h):
        want = 1 if i == 0 else 0
        if led.read(s, off + i) != want:
            return False
        if led.read(s, off + h + i) != 0:
            return False
    return True


def _is_min(s: BitState, led: ProbeLedger, off: int, n: int) -> bool:
    # all-zeros test; B half first (zigzag across its quarters), then A's
    # second half, then A's first half
    h = n >> 1
    b = off + h
    q = h >> 1
    for i in range(q):
        if led.read(s, b + i):
            return False
        if led.read(s, b + q + i):
            return False
    if h & 1:
        if led.read(s, b + h - 1):
            return False
    for i in range(h >> 1, h):
        if led.read(s, off + i):
            return False
    for i in range(h >> 1):
        if led.read(s, off + i):
            return False
    return True


def _compare_inc(s: BitState, led: ProbeLedger, off_a: int, off_b: int, n: int) -> bool:
    """True iff A equals the successor of B."""
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


def _inc(s: BitState, led: ProbeLedger, off: int, n: int) -> None:
    if n == 1:
        led.write(s, off, led.read(s, off) ^ 1)
        return
    if n & 1:
        m = n - 1
        if led.read(s, off) == 0:
            if _is_max(s, led, off + 1, m):
                led.write(s, off, 1)
            else:
                _inc(s, led, off + 1, m)
        else:
            if _is_min(s, led, off + 1, m):
                led.write(s, off, 0)
            else:
                _dec(s, led, off + 1, m)
        return
    h = n >> 1
    if _equal(s, led, off, off + h, h):
        _dec(s, led, off + h, h)
    else:
        _inc(s, led, off, h)


def _dec(s: BitState, led: ProbeLedger, off: int, n: int) -> None:
    if n == 1:
        led.write(s, off, led.read(s, off) ^ 1)
        return
    if n & 1:
        m = n - 1
        if led.read(s, off) == 0:
            if _is_min(s, led, off + 1, m):
                led.write(s, off, 1)
            else:
                _dec(s, led, off + 1, m)
        else:
            if _is_max(s, led, off + 1, m):
                led.write(s, off, 0)
            else:
                _inc(s, led, off + 1, m)
        return
    h = n >> 1
    if _compare_inc(s, led, off, off + h, h):
        _inc(s, led, off + h, h)
    else:
        _dec(s, led, off, h)


def rpgc_increment(state: BitState, ledger: ProbeLedger) -> None:
    """One step forward; writes exactly one bit."""
    _inc(state, ledger, 0, state.dim)


def rpgc_decrement(state: BitState, ledger: ProbeLedger) -> None:
    """Exact inverse of :func:`rpgc_increment`; writes exactly one bit."""
    _dec(state, ledger, 0, state.dim)


def make_rpgc_counter(dim: int) -> CounterSpec:
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    return CounterSpec(
        name="rpgc",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=rpgc_increment,
        claimed_c=1,
    )
