"""Bit-string state and per-step probe accounting.

Every counter in this package mutates a :class:`BitState` through a
:class:`ProbeLedger`, which charges distinct bit positions read and written
per generating step, the way a decision assignment tree would: a bit that was
already read or written within the current step is known on the tree path and
costs nothing to consult again, and leaf rules may write bits blindly without
reading them first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


class BitState:
    """A fixed-dimension mutable bit string.

    Index 0 is the least-significant bit (the first array element in all
    counter step rules); the textual form prints bit dim-1 leftmost.
    """

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: Optional[Sequence[int]] = None):
        if dim < 1:
            raise UsageError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        if bits is None:
            self.bits: List[int] = [0] * dim
        else:
            if len(bits) != dim:
                raise UsageError(f"expected {dim} bits, got {len(bits)}")
            out = []
            for b in bits:
                if b not in (0, 1):
                    raise UsageError(f"bit values must be 0 or 1, got {b!r}")
                out.append(b)
            self.bits = out

    @classmethod
    def zeros(cls, dim: int) -> "BitState":
        return cls(dim)

    @classmethod
    def from_text(cls, text: str) -> "BitState":
        """Parse the canonical form: bit dim-1 leftmost, bit 0 rightmost."""
        if not text:
            raise UsageError("empty bit string")
        bits = []
        for ch in reversed(text):
            if ch == "0":
                bits.append(0)
            elif ch == "1":
                bits.append(1)
            else:
                raise UsageError(f"invalid character {ch!r} in bit string")
        return cls(len(bits), bits)

    @classmethod
    def from_int(cls, value: int, dim: int) -> "BitState":
        if not 0 <= value < (1 << dim):
            raise UsageError(f"value {value} out of range for {dim} bits")
        return cls(dim, [(value >> i) & 1 for i in range(dim)])

    def to_text(self) -> str:
        return "".join("1" if b else "0" for b in reversed(self.bits))

    def to_int(self) -> int:
        value = 0
        for i, b in enumerate(self.bits):
            value |= b << i
        return value

    def copy(self) -> "BitState":
        dup = BitState.__new__(BitState)
        dup.dim = self.dim
        dup.bits = list(self.bits)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitState):
            return NotImplemented
        return self.dim == other.dim and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.bits)))

    def __repr__(self) -> str:
        return f"BitState({self.to_text()!r})"


class ProbeLedger:
    """Charges distinct bit positions read and written per step.

    A position enters ``read_set`` only if it was neither read nor written
    earlier in the same step; writes always enter ``write_set`` (set
    semantics, so rewriting a position costs one write). ``close_step``
    folds the step into the running totals and maxima.
    """

    __slots__ = (
        "read_set",
        "write_set",
        "steps",
        "total_reads",
        "total_writes",
        "max_reads",
        "max_writes",
        "_open",
    )

    def __init__(self):
        self.read_set: set = set()
        self.write_set: set = set()
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
        """Tracked read of ``state.bits[pos]``; charged once per step."""
        if not self._open:
            raise UsageError("no open step")
        if pos < 0 or pos >= state.dim:
            raise UsageError(f"read position {pos} out of range for dim {state.dim}")
        rs = self.read_set
        if pos not in rs and pos not in self.write_set:
            rs.add(pos)
        return state.bits[pos]

    def write(self, state: BitState, pos: int, val: int) -> None:
        """Tracked write; blind (does not charge a read)."""
        if not self._open:
            raise UsageError("no open step")
        if pos < 0 or pos >= state.dim:
            raise UsageError(f"write position {pos} out of range for dim {state.dim}")
        if val not in (0, 1):
            raise UsageError(f"bit values must be 0 or 1, got {val!r}")
        self.write_set.add(pos)
        state.bits[pos] = val

    def close_step(self) -> Tuple[int, int]:
        """Return (distinct reads, distinct writes) and reset for the next step."""
        if not self._open:
            raise UsageError("no open step")
        r = len(self.read_set)
        w = len(self.write_set)
        self.total_reads += r
        self.total_writes += w
        if r > self.max_reads:
            self.max_reads = r
        if w > self.max_writes:
            self.max_writes = w
        self.read_set.clear()
        self.write_set.clear()
        self.steps += 1
        self._open = False
        return r, w


# Tracked operations on a field of ``width`` bits starting at ``off``; each
# reads from bit ``off`` upward, and the counters rely on that order.


def read_field(state: BitState, ledger: ProbeLedger, off: int, width: int) -> int:
    """The field as an integer with bit ``off`` lowest; reads every bit."""
    value = 0
    for j in range(width):
        value |= ledger.read(state, off + j) << j
    return value


def field_is_zero(state: BitState, ledger: ProbeLedger, off: int, width: int) -> bool:
    """All-zeros test that stops at the first 1."""
    for j in range(width):
        if ledger.read(state, off + j):
            return False
    return True


def increment_field(state: BitState, ledger: ProbeLedger, off: int, width: int) -> bool:
    """Binary increment with carry: flip 1s upward until a 0 is flipped to
    1. Reads = writes = chain length. Returns True when the field wraps to
    all zeros."""
    for j in range(width):
        if ledger.read(state, off + j):
            ledger.write(state, off + j, 0)
        else:
            ledger.write(state, off + j, 1)
            return False
    return True


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
