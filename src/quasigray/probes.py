"""Bit-string state and per-step probe accounting.

Every counter in this package mutates a :class:`BitState` through a
:class:`ProbeLedger`, which charges distinct bit positions read and written
per generating step, the way a decision assignment tree would: a bit that was
already read or written within the current step is known on the tree path and
costs nothing to consult again, and leaf rules may write bits blindly without
reading them first.

The ledger keeps a step's charges as two int masks, one bit per position,
which are its only record of them, and counts them with ``bit_count``.
Besides single reads, it scans a run of positions (``read_run``) and two
runs zipped (``read_zip``), each in one call, under the one contract
:class:`ProbeLedger` states. A third scan, ``read_table``, serves a whole
small call of a step function from a table that running the call itself
fills.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, MutableSequence, Optional, Sequence, Tuple


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


# the most bits a state may hold. A step's read and write sets grow with the
# dimension, so an unbounded one could exhaust memory; every counter and Gray
# sub-code state is built through BitState, which checks it.
MAX_DIM = 1 << 20


class BitState:
    """A fixed-dimension mutable bit string, held as one int ``value``.

    Bit 0 is the least-significant bit of ``value`` (the first bit in all
    counter step rules); the textual form prints bit dim-1 leftmost.
    """

    __slots__ = ("dim", "value")

    def __init__(self, dim: int, bits: Optional[Sequence[int]] = None):
        if not 1 <= dim <= MAX_DIM:
            raise UsageError(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
        self.dim = dim
        self.value = 0
        if bits is not None:
            if len(bits) != dim:
                raise UsageError(f"expected {dim} bits, got {len(bits)}")
            for b in bits:
                if b not in (0, 1):
                    raise UsageError(f"bit values must be 0 or 1, got {b!r}")
            self.value = int("".join("1" if b else "0" for b in reversed(bits)), 2)

    @classmethod
    def zeros(cls, dim: int) -> "BitState":
        return cls(dim)

    @classmethod
    def from_text(cls, text: str) -> "BitState":
        """Parse the canonical form: bit dim-1 leftmost, bit 0 rightmost."""
        if not text:
            raise UsageError("empty bit string")
        bad = text.replace("0", "").replace("1", "")
        if bad:
            raise UsageError(f"invalid character {bad[0]!r} in bit string")
        return cls.from_int(int(text, 2), len(text))

    @classmethod
    def from_int(cls, value: int, dim: int) -> "BitState":
        state = cls(dim)
        if not 0 <= value < (1 << dim):
            raise UsageError(f"value {value} out of range for {dim} bits")
        state.value = value
        return state

    @property
    def bits(self) -> Tuple[int, ...]:
        """The bits, bit 0 first; a read-only copy."""
        return tuple(map(int, reversed(self.to_text())))

    def to_text(self) -> str:
        return format(self.value, f"0{self.dim}b")

    def copy(self) -> "BitState":
        dup = BitState.__new__(BitState)
        dup.dim = self.dim
        dup.value = self.value
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitState):
            return NotImplemented
        return self.dim == other.dim and self.value == other.value

    def __repr__(self) -> str:
        return f"BitState({self.to_text()!r})"


class ProbeLedger:
    """Charges distinct bit positions read and written per step.

    A step's charges are two masks. Bit ``pos`` of ``rmask`` is set when
    position ``pos`` was read while it was neither read nor written earlier
    in the step; bit ``pos`` of ``wmask`` when it was written, so rewriting
    a position costs one write. ``close_step`` folds the step into the
    running totals and maxima.

    Besides single reads and writes, three scans each charge and return
    exactly what their loop of :meth:`read` would, in one call:
    :meth:`read_run` reads a run of positions, and :meth:`read_zip` tests
    two runs, zipped, for wanted bits or for equality. Each reads in a
    fixed order and ends right after the first bit that is not as wanted.
    :meth:`read_table` stands for a whole call of a step function on one
    or two short runs, its writes included. A scan of no positions reads
    nothing and returns what its loop would. A scan that finds no open
    step, has a negative width or leaves the state raises
    :class:`UsageError` and charges nothing.
    """

    __slots__ = (
        "rmask",
        "wmask",
        "steps",
        "total_reads",
        "total_writes",
        "max_reads",
        "max_writes",
        "_open",
    )

    def __init__(self):
        self.rmask = 0
        self.wmask = 0
        self.steps = 0
        self.total_reads = 0
        self.total_writes = 0
        self.max_reads = 0
        self.max_writes = 0
        self._open = False

    def open_step(self) -> None:
        if self._open:
            raise UsageError("a step is already open")
        self._open = True

    def read(self, state: BitState, pos: int) -> int:
        """Tracked read of bit ``pos``; charged once per step."""
        if not self._open:
            raise UsageError("no open step")
        if pos < 0 or pos >= state.dim:
            raise UsageError(f"read position {pos} out of range for dim {state.dim}")
        bit = 1 << pos
        if not self.wmask & bit:
            self.rmask |= bit
        return (state.value >> pos) & 1

    def read_run(self, state: BitState, off: int, width: int, want: Optional[int] = None) -> int:
        """Tracked reads of bits ``off, off+1, ...``: all ``width`` of them,
        or, given ``want``, up to and including the first bit that differs
        from its wanted bit, bit ``j`` of ``want`` for position ``off+j``.

        Returns the bits read as an int with bit ``off`` lowest.
        """
        if width <= 0 or not self._open or off < 0 or off + width > state.dim:
            return self._refuse(state, width, 0, off)
        mask = (1 << width) - 1
        run = (state.value >> off) & mask
        if want is not None:
            miss = (run ^ want) & mask
            if miss:
                # the run ends right after its lowest miss
                mask = ((miss & -miss) << 1) - 1
                run &= mask
        self.rmask |= (mask << off) & ~self.wmask
        return run

    def read_zip(
        self,
        state: BitState,
        a: int,
        b: int,
        n: int,
        want_a: Optional[int] = None,
        want_b: Optional[int] = None,
    ) -> bool:
        """Tracked reads of ``a, b, a+1, b+1, ...`` that end right after
        the first bit that differs from its wanted bit: bit ``i`` of
        ``want_a`` for position ``a+i``, of ``want_b`` for ``b+i``. True
        when all ``2n`` bits are as wanted.

        With no wanted bits it compares the runs for equality: every ``a``
        bit is as wanted, and each ``b`` bit wants its ``a`` bit, so the
        scan ends right after the first unequal pair."""
        dim = state.dim
        if n <= 0 or not self._open or a < 0 or b < 0 or a + n > dim or b + n > dim:
            return self._refuse(state, n, True, a, b)
        value = state.value
        mask = (1 << n) - 1
        if want_a is None:
            want_a = want_b = value >> a
        # bit n stands for "no miss", so each lowest bit is the run's end
        low_a = ((value >> a) ^ want_a) & mask | (mask + 1)
        low_b = ((value >> b) ^ want_b) & mask | (mask + 1)
        low_a &= -low_a
        low_b &= -low_b
        if low_a <= low_b:
            # a's miss ends the scan: b is read up to the pair before it
            mask_a = ((low_a << 1) - 1) & mask
            mask_b = low_a - 1
        else:
            mask_a = mask_b = (low_b << 1) - 1
        self.rmask |= ((mask_a << a) | (mask_b << b)) & ~self.wmask
        return low_a == low_b > mask

    def read_table(
        self,
        state: BitState,
        off: int,
        n: int,
        table: MutableSequence[int],
        call: Callable[[BitState, "ProbeLedger"], object],
        off_b: Optional[int] = None,
    ) -> bool:
        """One call of a step function on the ``n`` bits from ``off``, and
        the ``n`` from ``off_b`` when given, served from ``table``: charges
        the call's reads, flips the bits it writes and returns whether its
        result is true, exactly as the call would.

        ``table`` holds one packed entry per value of the call's bits, those
        from ``off`` lowest: the call's read mask, then its result, then its
        write mask. An entry of 0 is not filled yet; it is filled by running
        ``call(sub, ledger)`` under a fresh ledger on a fresh state ``sub``
        that holds the call's runs alone, from bit 0 (and bit ``n``). This
        is exact for a call whose reads, writes and result depend only on
        the bits of its runs and which flips every bit it writes: a bit
        written earlier in the step stays free to read, as it would be.
        """
        dim = state.dim
        if (
            n <= 0
            or not self._open
            or off < 0
            or off + n > dim
            or off_b is not None
            and (off_b < 0 or off_b + n > dim)
        ):
            return self._refuse(state, n, False, *(off,) if off_b is None else (off, off_b))
        value = state.value
        mask = (1 << n) - 1
        index = (value >> off) & mask
        if off_b is None:
            # one run: the entry's masks have no bits past n to place at off_b
            off_b = off
            width = n
        else:
            index |= ((value >> off_b) & mask) << n
            width = n << 1
        entry = table[index]
        if not entry:
            entry = table[index] = _table_entry(call, index, width)
        reads = entry & ((1 << width) - 1)
        self.rmask |= ((reads & mask) << off | (reads >> n) << off_b) & ~self.wmask
        flips = entry >> (width + 1)
        if flips:
            flips = (flips & mask) << off | (flips >> n) << off_b
            self.wmask |= flips
            state.value = value ^ flips
        return entry >> width & 1 == 1

    def _refuse(self, state: BitState, n: int, empty, *offs: int):
        """The end of a scan its guard kept off the mask path: a scan of
        no positions returns ``empty``, its loop's result; any other
        raises before it charges anything."""
        # the zero-width test comes first: it is the one case counters make
        if not n:
            return empty
        if not self._open:
            raise UsageError("no open step")
        at = " and ".join(map(str, offs))
        raise UsageError(f"a scan of width {n} at {at} must lie inside dim {state.dim}")

    def write(self, state: BitState, pos: int, val: int) -> None:
        """Tracked write; blind (does not charge a read)."""
        if not self._open:
            raise UsageError("no open step")
        if pos < 0 or pos >= state.dim:
            raise UsageError(f"write position {pos} out of range for dim {state.dim}")
        if val not in (0, 1):
            raise UsageError(f"bit values must be 0 or 1, got {val!r}")
        bit = 1 << pos
        self.wmask |= bit
        if val:
            state.value |= bit
        else:
            state.value &= ~bit

    def close_step(self) -> Tuple[int, int]:
        """Return (distinct reads, distinct writes) and reset for the next step."""
        if not self._open:
            raise UsageError("no open step")
        r = self.rmask.bit_count()
        w = self.wmask.bit_count()
        self.total_reads += r
        self.total_writes += w
        if r > self.max_reads:
            self.max_reads = r
        if w > self.max_writes:
            self.max_writes = w
        self.rmask = 0
        self.wmask = 0
        self.steps += 1
        self._open = False
        return r, w


def _table_entry(call: Callable[[BitState, ProbeLedger], object], index: int, width: int) -> int:
    """The packed :meth:`ProbeLedger.read_table` entry of ``call`` on a
    state of ``width`` bits that holds ``index``."""
    sub = BitState.from_int(index, width)
    ledger = ProbeLedger()
    ledger.open_step()
    result = call(sub, ledger)
    if sub.value ^ index != ledger.wmask:
        raise UsageError("a call served from a table must flip every bit it writes")
    return ledger.rmask | (1 if result else 0) << width | ledger.wmask << (width + 1)


# Tracked operations on a field of ``width`` bits starting at ``off``; each
# reads from bit ``off`` upward, and the counters rely on that order.


def field_is_zero(state: BitState, ledger: ProbeLedger, off: int, width: int) -> bool:
    """All-zeros test that ends at the first 1."""
    return not ledger.read_run(state, off, width, 0)


def increment_field(state: BitState, ledger: ProbeLedger, off: int, width: int) -> bool:
    """Binary increment with carry: flip 1s upward until a 0 is flipped to
    1. Reads = writes = chain length. Returns True when the field wraps to
    all zeros."""
    ones = ledger.read_run(state, off, width, -1)
    # the chain is the 1s below the first 0 and that 0, or all width 1s
    chain = (ones + 1).bit_length()
    for j in range(min(chain, width)):
        ledger.write(state, off + j, ((ones >> j) & 1) ^ 1)
    return chain > width


AdvanceFn = Callable[[BitState, ProbeLedger], None]


@dataclass
class CounterSpec:
    """Uniform wrapper around one counter: its dimension, initial state and
    single-step advance procedure, plus the constant c it claims for the
    quasi-Gray property (worst-case bits written per step)."""

    name: str
    dim: int
    params: Dict[str, object]
    initial: BitState
    advance: AdvanceFn
    claimed_c: int = field(default=1)

    def fresh_state(self) -> BitState:
        return self.initial.copy()
