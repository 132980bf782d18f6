"""Binary Reflected Gray Code: successor, predecessor, rank and unrank.

The successor rule reads every bit (the parity decides which bit flips) and
writes exactly one, so a full step always charges dim reads and 1 write.
The predecessor is the successor with the parity test reversed, so one
step function, ``_step_range``, takes the direction.

rank/unrank use the closed form ``gray = r XOR (r >> 1)`` and serve as the
independent oracle for the step functions. They are pure: ``lazy`` charges
the reads of the rank it takes of a Gray pointer.
"""

from __future__ import annotations

from .probes import BitState, CounterSpec, ProbeLedger, UsageError


def _step_range(state: BitState, ledger: ProbeLedger, off: int, n: int, up: bool) -> None:
    """One step on bits [off, off + n), forward when ``up``: read every bit,
    then flip bit 0 when the parity differs from ``up``, else the bit above
    the lowest 1, or the top bit across the wrap between 100...0 and all
    zeros. The flip takes the old bit from the bits read, which are already
    charged, so consulting it again costs nothing."""
    vals = ledger.read_run(state, off, n)
    if vals.bit_count() & 1 != up:
        j = 0
    else:
        low_one = (vals & -vals).bit_length() - 1
        j = n - 1 if low_one in (-1, n - 1) else low_one + 1
    ledger.write(state, off + j, ((vals >> j) & 1) ^ 1)


def _gray_rank(gray: int) -> int:
    # rank bit j is the parity of Gray bits j and above: a prefix XOR that
    # doubles its reach each round
    shift = 1
    while gray >> shift:
        gray ^= gray >> shift
        shift <<= 1
    return gray


def brgc_next(state: BitState, ledger: ProbeLedger) -> None:
    """Advance one step in the cyclic BRGC (reads dim bits, writes 1)."""
    _step_range(state, ledger, 0, state.dim, True)


def brgc_prev(state: BitState, ledger: ProbeLedger) -> None:
    """Inverse of :func:`brgc_next` (reads dim bits, writes 1)."""
    _step_range(state, ledger, 0, state.dim, False)


def brgc_rank(state: BitState) -> int:
    """Position of the state in the BRGC cycle that starts at all zeros."""
    # the untracked oracle: the one place a counter module reads bits directly
    return _gray_rank(state.value)


def brgc_unrank(r: int, dim: int) -> BitState:
    """State of rank r: the bits of ``r XOR (r >> 1)``."""
    if r < 0 or r.bit_length() > dim:
        raise UsageError(f"rank {r} out of range for dim {dim}")
    return BitState.from_int(r ^ (r >> 1), dim)


def make_brgc_counter(dim: int) -> CounterSpec:
    return CounterSpec(
        name="brgc",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=brgc_next,
        claimed_c=1,
    )
