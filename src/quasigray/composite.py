"""Layered composite codes and the planners built on top of them.

A layered plan stacks space-optimal codes: every step advances the
outermost layer, and a layer that wraps back to all zeros advances the
next one in. The full cycle length is the product of layer cycle lengths,
and a step writes one bit per layer it advances, so the worst case writes
equal the number of layers.

``auto_plan`` and ``logstar_plan`` mirror the iterated constructions that
trade extra written bits for fewer average reads. Their preconditions
involve iterated logarithms and are unreachable for any dimension a desk
machine can hold, so the planners check them exactly and refuse rather
than silently degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import brgc, rpgc
from .logmath import iterated_floor_log, iterated_log_at_least, log_star
from .probes import BitState, CounterSpec, ProbeLedger, UsageError, field_is_zero

LAYER_KINDS = ("rpgc", "brgc")


class PreconditionError(Exception):
    """A planner's stated precondition fails at the requested scale."""


@dataclass(frozen=True)
class Layer:
    kind: str
    dim: int


class LayerPlan:
    """Ordered layers, innermost first (the innermost occupies bit 0 up)."""

    __slots__ = ("layers", "offsets", "total_dim", "claimed_writes")

    def __init__(self, layers: Sequence[Layer], claimed_writes: int = 0):
        layers = tuple(layers)
        if not layers:
            raise UsageError("a plan needs at least one layer")
        for lay in layers:
            if lay.kind not in LAYER_KINDS:
                raise UsageError(f"unknown layer kind {lay.kind!r}")
            if lay.dim < 1:
                raise UsageError(f"layer dim must be >= 1, got {lay.dim}")
        self.layers = layers
        offsets = []
        off = 0
        for lay in layers:
            offsets.append(off)
            off += lay.dim
        self.offsets = tuple(offsets)
        self.total_dim = off
        self.claimed_writes = claimed_writes if claimed_writes else len(layers)

    def describe(self) -> List[Tuple[str, int]]:
        """Serialized form for reports: (kind, dim) pairs, innermost first."""
        return [(lay.kind, lay.dim) for lay in self.layers]

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{d}" for k, d in self.describe())
        return f"LayerPlan([{inner}], writes<={self.claimed_writes})"


def composite_step(plan: LayerPlan, state: BitState, ledger: ProbeLedger) -> None:
    """Advance the outermost layer; each layer that lands on all zeros
    advances the next layer in. The wrap test scans the layer from its
    bit 0 upward; bits the advance just touched are free."""
    if state.dim != plan.total_dim:
        raise UsageError(f"state dim {state.dim} != plan dim {plan.total_dim}")
    idx = len(plan.layers) - 1
    while True:
        lay = plan.layers[idx]
        off = plan.offsets[idx]
        if lay.kind == "rpgc":
            rpgc._inc(state, ledger, off, lay.dim)
        else:
            brgc._next_range(state, ledger, off, lay.dim)
        if idx == 0 or not field_is_zero(state, ledger, off, lay.dim):
            return
        idx -= 1


def build_layered(dims: Sequence[int], inner_kind: str = "rpgc") -> LayerPlan:
    """Plan with the given layer dimensions, innermost first. Outer layers
    are always RPGC; ``inner_kind`` selects the innermost code."""
    if not dims:
        raise UsageError("dims must be non-empty")
    if inner_kind not in LAYER_KINDS:
        raise UsageError(f"inner kind must be one of {LAYER_KINDS}, got {inner_kind!r}")
    layers = [Layer(inner_kind, dims[0])]
    layers.extend(Layer("rpgc", d) for d in dims[1:])
    return LayerPlan(layers)


def auto_plan(d: int, c: int) -> LayerPlan:
    """Recursive split achieving worst-case writes c.

    c = 1 is the plain single-layer code. For c > 1 the construction needs
    log^(2c-1)(d) >= 11, which no storable d satisfies; the check is exact
    and failing it raises :class:`PreconditionError`.
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if c < 1:
        raise UsageError(f"c must be >= 1, got {c}")
    if c == 1:
        return LayerPlan([Layer("rpgc", d)], claimed_writes=1)
    if not iterated_log_at_least(d, 2 * c - 1, 11):
        raise PreconditionError(
            f"log^({2 * c - 1})({d}) >= 11 does not hold; "
            f"the c={c} construction needs a far larger dimension"
        )
    # outer layer dimension ceil(log2(6*log^(2c-3)(d) + 11)), per the
    # inductive split; unreachable in practice but kept exact in shape
    x = iterated_floor_log(d, 2 * c - 3)
    r = 6 * x + 11
    d_outer = (r - 1).bit_length()
    inner = auto_plan(d - d_outer, c - 1)
    return LayerPlan(inner.layers + (Layer("rpgc", d_outer),), claimed_writes=c)


_T16 = 1 << 16
_T17 = 1 << 17
# (threshold, outer layer peeled while d is above it, offset added to
# log* d in the write claim), highest threshold first
_PEELS = ((15 + _T17, 5, 5), (10 + _T17, 7, 3), (3 + _T17, 3 + _T16, 1))


def _peel(d: int) -> Tuple[int, int]:
    """The outer layer to peel from d (0 at or below 3 + 2^17) and the
    write claim's offset."""
    return next(((peel, k) for t, peel, k in _PEELS if d > t), (0, -1))


def _logstar_layers(d: int) -> Tuple[Layer, ...]:
    # peel fixed outer layers while d is above a threshold, outermost first
    outer = []
    peel = _peel(d)[0]
    while peel:
        outer.append(Layer("rpgc", peel))
        d -= peel
        peel = _peel(d)[0]
    c = (log_star(d) - 3) // 2
    return auto_plan(d, c).layers + tuple(reversed(outer))


def logstar_plan(d: int) -> LayerPlan:
    """Fixed composite wrappings that push the average reads to a constant
    while writing O(log* d) bits; defined only for d > 2^16."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if d <= _T16:
        raise PreconditionError(
            f"d > 2^16 required (log*({d}) = {log_star(d)} leaves no write budget)"
        )
    claim = (log_star(d) + _peel(d)[1]) // 2
    return LayerPlan(_logstar_layers(d), claimed_writes=claim)


def make_composite_counter(plan: LayerPlan) -> CounterSpec:
    def advance(state: BitState, ledger: ProbeLedger) -> None:
        composite_step(plan, state, ledger)

    return CounterSpec(
        name="composite",
        dim=plan.total_dim,
        params={
            "layers": ",".join(str(lay.dim) for lay in plan.layers),
            "inner": plan.layers[0].kind,
        },
        initial=BitState.zeros(plan.total_dim),
        advance=advance,
        claimed_c=len(plan.layers),
    )
