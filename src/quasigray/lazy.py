"""Lazy counters: a payload field b of n bits counts through the standard
binary numbers while a pointer field i (log n bits) spreads each multi-bit
carry over single-write steps; a phase field k of g bits harvests extra
states by spinning i between real increments.

Four variants share one layout:

* ``lazy_increment``   g = 0, binary pointer (the base construction);
* ``spin_increment``   g = 1, binary fields, i spins once per real phase;
* ``double_spin_increment``  general g, binary fields;
* ``wine_increment``   i and k hold cyclic Gray codes (BRGC by default,
  any space-optimal sub-code via the pluggable encoding), which caps the
  writes per step at 3.

Enumerated cycle lengths are the ground truth for these counters; the
claimed closed forms are stored as disputed bounds and reported as deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from . import brgc, rpgc
from .logmath import is_power_of_two
from .probes import (
    BitState,
    CounterSpec,
    ProbeLedger,
    UsageError,
    field_is_zero,
    increment_field,
    read_field,
)

ENCODINGS = ("binary", "brgc", "rpgc")


@dataclass(frozen=True)
class LazyLayout:
    """Field layout: b at [0, n), i at [n, n + log n), k at the top g bits."""

    n: int
    g: int
    encoding: str = "binary"

    def __post_init__(self):
        if self.n < 2 or not is_power_of_two(self.n):
            raise UsageError(f"n must be a power of two >= 2, got {self.n}")
        if self.g < 0:
            raise UsageError(f"g must be >= 0, got {self.g}")
        if self.encoding not in ENCODINGS:
            raise UsageError(f"encoding must be one of {ENCODINGS}, got {self.encoding!r}")

    @property
    def width(self) -> int:
        return self.n.bit_length() - 1

    @property
    def i_offset(self) -> int:
        return self.n

    @property
    def k_offset(self) -> int:
        return self.n + self.width

    @property
    def dim(self) -> int:
        return self.n + self.width + self.g


class SubCode:
    """A cyclic space-optimal code driving one sub-field of the counter.

    ``advance`` steps the field under the ledger; ``rank`` charges a full
    read of the field (the position lookup needs every bit) and returns
    the state's rank; ``max_pattern`` is the state of highest rank, which
    for a cyclic Gray code differs from all-zeros in exactly one bit.
    """

    __slots__ = ("kind", "width", "max_pattern", "_rank_table")

    def __init__(self, kind: str, width: int):
        if width < 1:
            raise UsageError(f"sub-code width must be >= 1, got {width}")
        self.kind = kind
        self.width = width
        if kind == "brgc":
            self._rank_table = None
            self.max_pattern = [0] * width
            self.max_pattern[width - 1] = 1
        elif kind == "rpgc":
            self._rank_table = _rpgc_rank_table(width)
            last = len(self._rank_table) - 1
            max_value = next(v for v, r in self._rank_table.items() if r == last)
            self.max_pattern = [(max_value >> j) & 1 for j in range(width)]
        else:
            raise UsageError(f"sub-code kind must be brgc or rpgc, got {kind!r}")

    def advance(self, state: BitState, ledger: ProbeLedger, off: int) -> None:
        if self.kind == "brgc":
            brgc._next_range(state, ledger, off, self.width)
        else:
            rpgc._inc(state, ledger, off, self.width)

    def rank(self, state: BitState, ledger: ProbeLedger, off: int) -> int:
        if self.kind == "brgc":
            return brgc._rank_range_tracked(state, ledger, off, self.width)
        return self._rank_table[read_field(state, ledger, off, self.width)]


@lru_cache(maxsize=None)
def _sub_code(kind: str, width: int) -> SubCode:
    return SubCode(kind, width)


def _rpgc_rank_table(width: int) -> dict:
    state = BitState.zeros(width)
    ledger = ProbeLedger()
    table = {0: 0}
    for r in range(1, 1 << width):
        ledger.open_step()
        rpgc._inc(state, ledger, 0, width)
        ledger.close_step()
        value = state.to_int()
        if value in table:
            raise UsageError(f"sub-code of width {width} is not space-optimal")
        table[value] = r
    return table


def _assign_int_field(
    state: BitState, ledger: ProbeLedger, off: int, old: int, new: int
) -> None:
    # blind writes of just the positions that change; the caller knows old
    diff = old ^ new
    j = 0
    while diff:
        if diff & 1:
            ledger.write(state, off + j, (new >> j) & 1)
        diff >>= 1
        j += 1


def _lazy_core(state: BitState, ledger: ProbeLedger, n: int, width: int) -> int:
    """One base lazy step on (b, i); returns the new value of i."""
    ival = read_field(state, ledger, n, width)
    if ledger.read(state, ival):
        ledger.write(state, ival, 0)
        new_i = (ival + 1) % n
    else:
        ledger.write(state, ival, 1)
        new_i = 0
    _assign_int_field(state, ledger, n, ival, new_i)
    return new_i


def lazy_increment(layout: LazyLayout, state: BitState, ledger: ProbeLedger) -> None:
    """Clear b[i] and bump i while b[i] is 1; set b[i] and reset i otherwise."""
    if layout.g != 0:
        raise UsageError("lazy_increment uses a layout with g = 0")
    _lazy_core(state, ledger, layout.n, layout.width)


def spin_increment(layout: LazyLayout, state: BitState, ledger: ProbeLedger) -> None:
    """Spin i through all values while k = 0, then run real increments."""
    if layout.g != 1:
        raise UsageError("spin_increment uses a layout with g = 1")
    if layout.encoding != "binary":
        raise UsageError("spin_increment uses binary fields")
    k_off = layout.k_offset
    if ledger.read(state, k_off) == 0:
        if increment_field(state, ledger, layout.i_offset, layout.width):
            ledger.write(state, k_off, 1)
    else:
        if _lazy_core(state, ledger, layout.n, layout.width) == 0:
            ledger.write(state, k_off, 0)


def double_spin_increment(
    layout: LazyLayout, state: BitState, ledger: ProbeLedger
) -> None:
    """Spin i for 2^g - 1 rounds per real phase, counting rounds in k."""
    if layout.g < 1:
        raise UsageError("double_spin_increment needs g >= 1")
    if layout.encoding != "binary":
        raise UsageError("double_spin_increment uses binary fields")
    k_off = layout.k_offset
    # k < 2^g - 1 iff some bit of k is 0; scan low to high, so only the
    # rare all-ones case reads all g bits
    first_zero = -1
    for j in range(layout.g):
        if ledger.read(state, k_off + j) == 0:
            first_zero = j
            break
    if first_zero >= 0:
        if increment_field(state, ledger, layout.i_offset, layout.width):
            # k+1 touches exactly the bits the scan above already read
            for j in range(first_zero):
                ledger.write(state, k_off + j, 0)
            ledger.write(state, k_off + first_zero, 1)
    else:
        if _lazy_core(state, ledger, layout.n, layout.width) == 0:
            for j in range(layout.g):
                ledger.write(state, k_off + j, 0)


def _field_matches(
    state: BitState, ledger: ProbeLedger, off: int, pattern: List[int]
) -> bool:
    for j, want in enumerate(pattern):
        if ledger.read(state, off + j) != want:
            return False
    return True


def _clear_max_state(
    state: BitState, ledger: ProbeLedger, off: int, code: SubCode
) -> None:
    # the field is at the code's maximal state, which differs from zero in
    # a single bit for a Gray sub-code: one blind write resets it
    for j, bit in enumerate(code.max_pattern):
        if bit:
            ledger.write(state, off + j, 0)


def wine_increment(layout: LazyLayout, state: BitState, ledger: ProbeLedger) -> None:
    """Gray-coded variant: i and k step through cyclic sub-codes so that a
    step never writes more than one bit in each of b, i and k."""
    if layout.g < 1:
        raise UsageError("wine_increment needs g >= 1")
    if layout.encoding not in ("brgc", "rpgc"):
        raise UsageError("wine_increment needs a Gray sub-code encoding")
    i_code = _sub_code(layout.encoding, layout.width)
    k_code = _sub_code(layout.encoding, layout.g)
    i_off = layout.i_offset
    k_off = layout.k_offset
    if not _field_matches(state, ledger, k_off, k_code.max_pattern):
        i_code.advance(state, ledger, i_off)
        if field_is_zero(state, ledger, i_off, layout.width):
            k_code.advance(state, ledger, k_off)
    else:
        pos = i_code.rank(state, ledger, i_off)
        if ledger.read(state, pos):
            ledger.write(state, pos, 0)
            i_code.advance(state, ledger, i_off)
            if field_is_zero(state, ledger, i_off, layout.width):
                _clear_max_state(state, ledger, k_off, k_code)
        else:
            ledger.write(state, pos, 1)
            # i is left where it is; only k returns to its initial state
            _clear_max_state(state, ledger, k_off, k_code)


def _lazy_counter(name: str, layout: LazyLayout, step, claimed_c: int) -> CounterSpec:
    return CounterSpec(
        name=name,
        dim=layout.dim,
        # reports echo the layout as (n, g, encoding)
        params={"encoding": layout.encoding, "g": layout.g, "n": layout.n},
        initial=BitState.zeros(layout.dim),
        advance=lambda s, led: step(layout, s, led),
        claimed_c=claimed_c,
    )


def make_lazy_counter(n: int) -> CounterSpec:
    layout = LazyLayout(n, 0)
    return _lazy_counter("lazy", layout, lazy_increment, layout.width + 1)


def make_spin_counter(n: int) -> CounterSpec:
    layout = LazyLayout(n, 1)
    return _lazy_counter("spin", layout, spin_increment, layout.width + 2)


def make_doublespin_counter(n: int, g: int) -> CounterSpec:
    layout = LazyLayout(n, g)
    return _lazy_counter("doublespin", layout, double_spin_increment, g + layout.width + 1)


def make_wine_counter(n: int, g: int, encoding: str = "brgc") -> CounterSpec:
    layout = LazyLayout(n, g, encoding)
    if layout.encoding == "binary":
        raise UsageError("wine counters need a Gray sub-code encoding")
    return _lazy_counter("wine", layout, wine_increment, 3)
