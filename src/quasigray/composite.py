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
from .logmath import iterated_log_at_least, log_star
from .probes import BitState, CounterSpec, ProbeLedger, UsageError, field_is_zero, increment_field

# the Gray sub-code kinds a layer or a lazy sub-field may use, each mapped
# to its step on a bit range: (state, ledger, offset, width, forward)
GRAY_STEPS = {"rpgc": rpgc._step, "brgc": brgc._step_range}


def step_field(
    kind: str, state: BitState, ledger: ProbeLedger, off: int, width: int, wrap: bool = True
) -> bool:
    """Step a field forward in its code, binary or a Gray kind; True when
    it wrapped to all zeros. A binary step knows that for free. A Gray step
    learns it from a zero test from bit ``off`` upward, which may read new
    bits, so it is taken only when ``wrap``."""
    if kind == "binary":
        return increment_field(state, ledger, off, width)
    GRAY_STEPS[kind](state, ledger, off, width, True)
    return wrap and field_is_zero(state, ledger, off, width)


class PreconditionError(Exception):
    """A planner's stated precondition fails at the requested scale."""


@dataclass(frozen=True)
class Layer:
    kind: str
    dim: int


class LayerPlan:
    """Ordered layers, innermost first (the innermost occupies bit 0 up).

    ``claimed_writes`` is the planner's own claim on a step's writes, the
    layer count unless the planner states one. ``verify`` never reads it:
    the write cap that ``verify`` and the bound catalog check is the
    counter's ``claimed_c``, the layer count. The two differ where the
    claim is open, as for ``logstar_plan(2^17 + 26)``: 6 layers, claim 5.
    """

    __slots__ = ("layers", "offsets", "total_dim", "claimed_writes")

    def __init__(self, layers: Sequence[Layer], claimed_writes: int = 0):
        layers = tuple(layers)
        if not layers:
            raise UsageError("a plan needs at least one layer")
        for lay in layers:
            if lay.kind not in GRAY_STEPS:
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
    advances the next layer in. The innermost layer takes no wrap test;
    bits a step just touched are free to the test that follows it."""
    if state.dim != plan.total_dim:
        raise UsageError(f"state dim {state.dim} != plan dim {plan.total_dim}")
    for idx in reversed(range(len(plan.layers))):
        lay = plan.layers[idx]
        if not step_field(lay.kind, state, ledger, plan.offsets[idx], lay.dim, idx > 0):
            return


def build_layered(dims: Sequence[int], inner_kind: str = "rpgc") -> LayerPlan:
    """Plan with the given layer dimensions, innermost first. Outer layers
    are always RPGC; ``inner_kind`` selects the innermost code."""
    if not dims:
        raise UsageError("dims must be non-empty")
    layers = [Layer(inner_kind, dims[0])]
    layers.extend(Layer("rpgc", d) for d in dims[1:])
    return LayerPlan(layers)


def auto_plan(d: int, c: int) -> LayerPlan:
    """Recursive split achieving worst-case writes c.

    c = 1 is the plain single-layer code. For c > 1 the construction needs
    log^(2c-1)(d) >= 11, so d >= 2^(2^2048), which no Python int reaches;
    the check is exact and failing it raises :class:`PreconditionError`.
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
    raise AssertionError(f"log^({2 * c - 1})({d}) >= 11 holds for no storable d")


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
