"""Binary Reflected Gray Code: successor, predecessor, rank and unrank.

The successor rule reads every bit (the parity decides which bit flips) and
writes exactly one, so a full step always charges dim reads and 1 write.
rank/unrank use the closed form ``gray = r XOR (r >> 1)`` and serve as the
independent oracle for the step functions; they are pure unless the
ledger-charging variant is requested.
"""

from __future__ import annotations

from .probes import BitState, CounterSpec, ProbeLedger, UsageError


def _scan(state: BitState, ledger: ProbeLedger, off: int, n: int):
    """Read every bit from ``off`` upward: the parity and the lowest 1 (-1 if none)."""
    parity = 0
    low_one = -1
    for j in range(n):
        v = ledger.read(state, off + j)
        parity ^= v
        if v and low_one < 0:
            low_one = j
    return parity, low_one


def _next_range(state: BitState, ledger: ProbeLedger, off: int, n: int) -> None:
    parity, low_one = _scan(state, ledger, off, n)
    if parity == 0:
        ledger.write(state, off, ledger.read(state, off) ^ 1)
    elif low_one == n - 1:
        # state 100...0 wraps to all zeros
        ledger.write(state, off + n - 1, 0)
    else:
        pos = off + low_one + 1
        ledger.write(state, pos, ledger.read(state, pos) ^ 1)


def _prev_range(state: BitState, ledger: ProbeLedger, off: int, n: int) -> None:
    parity, low_one = _scan(state, ledger, off, n)
    if parity == 1:
        ledger.write(state, off, ledger.read(state, off) ^ 1)
    elif low_one < 0:
        # all zeros wraps back to 100...0
        ledger.write(state, off + n - 1, 1)
    else:
        pos = off + low_one + 1
        ledger.write(state, pos, ledger.read(state, pos) ^ 1)


def _rank_range(state: BitState, off: int, n: int) -> int:
    bits = state.bits
    r = 0
    acc = 0
    for j in range(n - 1, -1, -1):
        acc ^= bits[off + j]
        r = (r << 1) | acc
    return r


def _rank_range_tracked(state: BitState, ledger: ProbeLedger, off: int, n: int) -> int:
    r = 0
    acc = 0
    for j in range(n - 1, -1, -1):
        acc ^= ledger.read(state, off + j)
        r = (r << 1) | acc
    return r


def brgc_next(state: BitState, ledger: ProbeLedger) -> None:
    """Advance one step in the cyclic BRGC (reads dim bits, writes 1)."""
    _next_range(state, ledger, 0, state.dim)


def brgc_prev(state: BitState, ledger: ProbeLedger) -> None:
    """Inverse of :func:`brgc_next` (reads dim bits, writes 1)."""
    _prev_range(state, ledger, 0, state.dim)


def brgc_rank(state: BitState) -> int:
    """Position of the state in the BRGC cycle that starts at all zeros."""
    return _rank_range(state, 0, state.dim)


def brgc_rank_tracked(state: BitState, ledger: ProbeLedger) -> int:
    """rank variant that charges a read of every bit, for use inside
    counters whose cost accounting must include the rank lookup."""
    return _rank_range_tracked(state, ledger, 0, state.dim)


def brgc_unrank(r: int, dim: int) -> BitState:
    """State of rank r: the bits of ``r XOR (r >> 1)``."""
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    if not 0 <= r < (1 << dim):
        raise UsageError(f"rank {r} out of range for dim {dim}")
    gray = r ^ (r >> 1)
    return BitState(dim, [(gray >> i) & 1 for i in range(dim)])


def make_brgc_counter(dim: int) -> CounterSpec:
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    return CounterSpec(
        name="brgc",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=brgc_next,
        claimed_c=1,
    )
