"""Exhaustive cycle enumeration and metric collection.

``enumerate_cycle`` steps a counter from its initial state until the
initial state recurs (or a cap is hit), detecting in constant memory a run
that can never return, and aggregates the ledger's probe charges into
exact rational metrics. Nothing here depends on floating point, so two
runs of the same enumeration are bit-identical.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, Optional

from .probes import BitState, CounterSpec, ProbeLedger, UsageError, increment_field

DEFAULT_CYCLE_CAP = 1 << 26
CAP_ENV_VAR = "QUASIGRAY_CYCLE_CAP"


def cycle_cap_from_env(default: int = DEFAULT_CYCLE_CAP) -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise UsageError(f"{CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


@dataclass
class CycleReport:
    """Everything measured over one enumeration.

    ``length`` counts the steps taken; when ``closed`` it equals the cycle
    length L (first return to the initial state). ``distinct`` certifies
    the states distinct only on a closed run; on a run the cap cut short it
    means no repeat was detected, not that none occurred, and it is False
    once one was. ``last_state`` is the canonical text of the state visited
    just before that return.
    """

    counter: str
    dim: int
    params: Dict[str, object]
    length: int
    closed: bool
    distinct: bool
    space_efficiency: Fraction
    avg_reads: Fraction
    worst_reads: int
    avg_writes: Fraction
    worst_writes: int
    max_hamming: int
    total_reads: int
    total_writes: int
    last_state: Optional[str]
    step_reads: array
    step_writes: array
    step_hamming: array
    # steps that ran the counter's step function; the rest walked the tree
    interpreted_steps: int


def _graft(
    tree: array,
    leaves: list,
    leaf_ids: dict,
    snap: int,
    ledger: ProbeLedger,
    bits: list,
    dim: int,
) -> None:
    """Add the read path of the step the ledger just charged, taken from
    state ``snap`` (``bits`` is the state after it), below the tree node
    where its walk fell off.

    The path tests the positions the walk already tested, then the step's
    remaining charged reads in position order. A state that reaches the new
    leaf therefore agrees with ``snap`` on every bit the step read, and the
    step does the same to it. A path that tests all ``dim`` bits pins one
    state, which cannot recur before the cycle closes, so it is not added.
    """
    walked = set()
    slot = -1
    node = 0
    while tree:
        pos = tree[node]
        walked.add(pos)
        slot = node + 1 + ((snap >> pos) & 1)
        node = tree[slot]
        if not node:
            break
    rest = sorted(ledger.read_set.difference(walked))
    if not 0 < len(walked) + len(rest) < dim:
        return
    written = set_mask = 0
    for p in ledger.write_set:
        written |= 1 << p
        set_mask |= bits[p] << p
    leaf = (~written, set_mask, len(ledger.read_set), len(ledger.write_set))
    for pos in rest:
        node = len(tree)
        if slot >= 0:
            tree[slot] = node
        tree.extend((pos, 0, 0))
        slot = node + 1 + ((snap >> pos) & 1)
    i = leaf_ids.setdefault(leaf, len(leaves))
    if i == len(leaves):
        leaves.append(leaf)
    tree[slot] = ~i


def enumerate_cycle(counter: CounterSpec, cap: Optional[int] = None) -> CycleReport:
    """Run the counter until its initial state recurs or ``cap`` steps.

    A first return to the initial state at step L proves the L states
    distinct: steps are deterministic, so s_i = s_j with 0 < i < j < L
    would give s_(i+L-j) = s_0 before step L. A run that enters a loop
    missing the initial state can never close; Brent's cycle detection
    finds the loop in constant memory by comparing each state with the
    one saved at the last power-of-two step. Such a run stops with
    ``closed = distinct = False``, and its ``length`` is the step at which
    the repeat was detected, which may lie past the first repeated state.
    A run the cap stops before that step reports ``distinct = True``
    without having checked it.

    The run grows a decision tree over the state's bits from the steps it
    interprets: a node is ``(position, child0, child1)`` in a flat array, a
    child is 0 while unexplored, a node offset, or ``~i`` for leaf ``i``,
    which holds the step's keep and set masks and its read and write
    counts. A step whose walk ends at a leaf applies it; any other step
    runs the counter under the ledger and grafts its read path. The tree
    lives only as long as this call.
    """
    if cap is None:
        cap = DEFAULT_CYCLE_CAP
    if cap < 1:
        raise UsageError(f"cap must be >= 1, got {cap}")
    dim = counter.dim
    state = counter.fresh_state()
    ledger = ProbeLedger()
    advance = counter.advance
    open_step = ledger.open_step
    close_step = ledger.close_step
    read_set = ledger.read_set
    write_set = ledger.write_set

    masks = [1 << i for i in range(dim)]
    snap0 = state.to_int()
    snap = snap0

    saved = snap0
    next_save = 1

    step_reads = array("H")
    step_writes = array("H")
    step_hamming = array("H")
    append_reads = step_reads.append
    append_writes = step_writes.append
    append_hamming = step_hamming.append
    max_hamming = 0
    closed = False
    distinct = True
    steps = 0
    prev = snap0

    tree = array("i")
    leaves: list = []
    leaf_ids: Dict[tuple, int] = {}
    hit_reads = hit_writes = 0
    stale = False  # the bit list lags the snapshot after a tree step

    child = 0  # only a walk assigns it, so it stays 0 while the tree is empty
    bits = state.bits
    while steps < cap:
        if tree:
            node = 0
            while True:
                child = tree[node + 1 + ((snap >> tree[node]) & 1)]
                if child <= 0:
                    break
                node = child
            if stale and not child:
                bits[:] = map(int, reversed(f"{snap:0{dim}b}"))
                stale = False
        if child < 0:
            keep, set_mask, r, w = leaves[~child]
            snap = snap & keep | set_mask
            hit_reads += r
            hit_writes += w
            stale = True
        else:
            open_step()
            advance(state, ledger)
            for p in write_set:
                if bits[p]:
                    snap |= masks[p]
                else:
                    snap &= ~masks[p]
            if len(read_set) < dim:
                _graft(tree, leaves, leaf_ids, prev, ledger, bits, dim)
            r, w = close_step()
        h = (prev ^ snap).bit_count()
        append_reads(r)
        append_writes(w)
        append_hamming(h)
        if h > max_hamming:
            max_hamming = h
        steps += 1
        if snap == snap0:
            closed = True
            break
        if snap == saved:
            distinct = False
            break
        if steps == next_save:
            saved = snap
            next_save <<= 1
        prev = snap

    total_reads = ledger.total_reads + hit_reads
    total_writes = ledger.total_writes + hit_writes
    last_state = BitState.from_int(prev, dim).to_text() if closed else None
    return CycleReport(
        counter=counter.name,
        dim=dim,
        params=dict(counter.params),
        length=steps,
        closed=closed,
        distinct=distinct,
        space_efficiency=Fraction(steps, 1 << dim),
        avg_reads=Fraction(total_reads, steps),
        # every leaf was first an interpreted step, so the ledger saw the maxima
        worst_reads=ledger.max_reads,
        avg_writes=Fraction(total_writes, steps),
        worst_writes=ledger.max_writes,
        max_hamming=max_hamming,
        total_reads=total_reads,
        total_writes=total_writes,
        last_state=last_state,
        step_reads=step_reads,
        step_writes=step_writes,
        step_hamming=step_hamming,
        interpreted_steps=ledger.steps,
    )


@dataclass(frozen=True)
class QuasiGrayCheck:
    """Outcome of a quasi-Gray verification at constant c."""

    passed: bool
    c: int
    violation_step: Optional[int] = None  # 1-based step number
    violation_kind: Optional[str] = None  # "hamming" or "writes"
    violation_value: Optional[int] = None

    def describe(self) -> str:
        if self.passed:
            return f"quasi-Gray with c={self.c}"
        return (
            f"step {self.violation_step}: {self.violation_kind} = "
            f"{self.violation_value} exceeds c = {self.c}"
        )


def verify_quasi_gray(report: CycleReport, c: int) -> QuasiGrayCheck:
    """Pass iff every consecutive pair (wrap included) differs in at most c
    bits and every step wrote at most c bits."""
    if c < 1:
        raise UsageError(f"c must be >= 1, got {c}")
    if not report.closed or not report.distinct:
        raise UsageError("verify_quasi_gray needs a closed, distinct report")
    if report.max_hamming <= c and report.worst_writes <= c:
        return QuasiGrayCheck(passed=True, c=c)
    for idx in range(report.length):
        if report.step_hamming[idx] > c:
            return QuasiGrayCheck(False, c, idx + 1, "hamming", report.step_hamming[idx])
        if report.step_writes[idx] > c:
            return QuasiGrayCheck(False, c, idx + 1, "writes", report.step_writes[idx])
    raise AssertionError("aggregates disagree with per-step data")


def decimal_str(value: Fraction, digits: int = 10) -> str:
    """Deterministic decimal rendering with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


def _rational_entry(value: Fraction) -> Dict[str, object]:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": decimal_str(value),
    }


def params_text(params: Dict[str, object]) -> str:
    """Stable one-cell rendering of the non-dimension parameters."""
    items = [(k, v) for k, v in sorted(params.items()) if k != "dim"]
    return ";".join(f"{k}={v}" for k, v in items)


def flatten_report(report: CycleReport) -> Dict[str, object]:
    return {
        "counter": report.counter,
        "dim": report.dim,
        "params": params_text(report.params),
        "length": report.length,
        "closed": report.closed,
        "distinct": report.distinct,
        "space_efficiency": _rational_entry(report.space_efficiency),
        "avg_reads": _rational_entry(report.avg_reads),
        "worst_reads": report.worst_reads,
        "avg_writes": _rational_entry(report.avg_writes),
        "worst_writes": report.worst_writes,
        "max_hamming": report.max_hamming,
    }


def collect_metrics(report: CycleReport) -> Dict[str, object]:
    """Flatten a closed report for export; rationals carry num/den and a
    10-significant-digit decimal rendering."""
    if not report.closed:
        raise UsageError("collect_metrics needs a closed report")
    return flatten_report(report)


def standard_binary_step(state: BitState, ledger: ProbeLedger) -> None:
    """Binary increment of the whole state; all-ones wraps to all zeros."""
    increment_field(state, ledger, 0, state.dim)


def make_binary_counter(dim: int) -> CounterSpec:
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    return CounterSpec(
        name="binary",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=standard_binary_step,
        claimed_c=dim,
    )
