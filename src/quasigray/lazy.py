"""Lazy counters: a payload field b of n bits counts through the standard
binary numbers while a pointer field i (log n bits) spreads each multi-bit
carry over single-write steps; a phase field k of g bits harvests extra
states by spinning i between real increments.

One rule, :func:`lazy_step`, serves all four counters, which differ only in
their layout:

* ``lazy``        the rule at g = 0, where k is always at its maximum;
* ``spin``        the rule at g = 1;
* ``doublespin``  the rule at any g >= 1, with binary fields;
* ``wine``        i and k hold cyclic Gray sub-codes (BRGC by default,
  RPGC on request), which caps the writes per step at 3.

Each field encoding supplies three facts: its maximal state, its rank and
its forward step. A step tests k against its maximal state in one
``read_run`` that wants the maximum's bits. The one other difference is
the step that sets a payload bit: it resets a binary i to 0 and leaves a
Gray i where it is, which is why doublespin's cycle length ends in
2^(n+1) - 2 and wine's in 2^n + n - 1.

Enumerated cycle lengths are the ground truth for these counters; the
claimed closed forms are stored as disputed bounds and reported as deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import brgc, rpgc
from .composite import GRAY_STEPS, step_field
from .logmath import is_power_of_two
from .probes import BitState, CounterSpec, ProbeLedger, UsageError

ENCODINGS = ("binary", *sorted(GRAY_STEPS))


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

    @cached_property
    def width(self) -> int:
        return self.n.bit_length() - 1

    @cached_property
    def i_offset(self) -> int:
        return self.n

    @cached_property
    def k_offset(self) -> int:
        return self.n + self.width

    @property
    def dim(self) -> int:
        return self.n + self.width + self.g


@lru_cache(maxsize=None)
def _max_state(kind: str, width: int) -> int:
    """A field's state of highest rank: all ones in binary, and one step
    back from all zeros in a cyclic Gray sub-code, read back through the
    ledger."""
    if kind == "binary":
        return (1 << width) - 1
    state = BitState.zeros(width)
    ledger = ProbeLedger()
    ledger.open_step()
    GRAY_STEPS[kind](state, ledger, 0, width, False)
    return ledger.read_run(state, 0, width)


def _rank(kind: str, state: BitState, ledger: ProbeLedger, off: int, width: int) -> int:
    """Rank of a field in its code; charges a read of every bit."""
    value = ledger.read_run(state, off, width)
    if kind == "binary":
        return value
    if kind == "brgc":
        return brgc._gray_rank(value)
    return _rpgc_rank_table(width)[value]


@lru_cache(maxsize=None)
def _rpgc_rank_table(width: int) -> dict:
    state = BitState.zeros(width)
    ledger = ProbeLedger()
    table = {0: 0}
    for r in range(1, 1 << width):
        ledger.open_step()
        rpgc._step(state, ledger, 0, width, True)
        value = ledger.read_run(state, 0, width)
        ledger.close_step()
        if table.setdefault(value, r) != r:
            raise UsageError(f"sub-code of width {width} is not space-optimal")
    return table


def lazy_step(layout: LazyLayout, state: BitState, ledger: ProbeLedger) -> None:
    """One step of every lazy counter. While k is below its maximal state,
    i spins: it steps forward, and k steps when i wraps. At k's maximum
    the step is real: if b[rank(i)] is 1 it is cleared and i steps, k
    wrapping to 0 when i does; if it is 0 it is set, a binary i is reset
    to 0 (a Gray i stays where it is) and k wraps to 0. At g = 0, k is
    always at its maximum."""
    kind = layout.encoding
    i_off, width, k_off, g = layout.i_offset, layout.width, layout.k_offset, layout.g
    top = _max_state(kind, g)
    # k is read from bit 0 up to the first bit that differs from its maximum
    if ledger.read_run(state, k_off, g, top) == top:
        pos = _rank(kind, state, ledger, i_off, width)
        if not ledger.read(state, pos):
            ledger.write(state, pos, 1)
            if kind == "binary":
                while pos:
                    low = pos & -pos
                    ledger.write(state, i_off + low.bit_length() - 1, 0)
                    pos ^= low
            if g:
                step_field(kind, state, ledger, k_off, g, False)
            return
        ledger.write(state, pos, 0)
    # i steps, and k steps when i wraps. No k step takes a zero test: its
    # result goes unused, and from k's maximum it would read only bits that
    # the scan of k above already read
    if step_field(kind, state, ledger, i_off, width) and g:
        step_field(kind, state, ledger, k_off, g, False)


def _lazy_counter(name: str, layout: LazyLayout) -> CounterSpec:
    # a Gray i and k cap a step's writes at 3; binary ones write up to all of
    # i and k and one payload bit
    return CounterSpec(
        name=name,
        dim=layout.dim,
        # reports echo the layout as (n, g, encoding)
        params={"encoding": layout.encoding, "g": layout.g, "n": layout.n},
        initial=BitState.zeros(layout.dim),
        advance=partial(lazy_step, layout),
        claimed_c=layout.g + layout.width + 1 if layout.encoding == "binary" else 3,
    )


def make_lazy_counter(n: int) -> CounterSpec:
    return _lazy_counter("lazy", LazyLayout(n, 0))


def make_spin_counter(n: int) -> CounterSpec:
    return _lazy_counter("spin", LazyLayout(n, 1))


def make_doublespin_counter(n: int, g: int) -> CounterSpec:
    layout = LazyLayout(n, g)
    if g < 1:
        raise UsageError("doublespin counters need g >= 1")
    return _lazy_counter("doublespin", layout)


def make_wine_counter(n: int, g: int, encoding: str = "brgc") -> CounterSpec:
    layout = LazyLayout(n, g, encoding)
    if layout.encoding == "binary":
        raise UsageError("wine counters need a Gray sub-code encoding")
    if g < 1:
        raise UsageError("wine counters need g >= 1")
    return _lazy_counter("wine", layout)
