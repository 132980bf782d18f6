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
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .probes import BitState, CounterSpec, ProbeLedger, UsageError, increment_field

DEFAULT_CYCLE_CAP = 1 << 26
CAP_ENV_VAR = "QUASIGRAY_CYCLE_CAP"


def cycle_cap_from_env() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CYCLE_CAP
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

    The enumeration keeps no per-step data. :meth:`replay` gives each
    step's reads, writes and changed bits by running the step function
    again, one step at a time.
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
    # steps that ran the counter's step function; the rest walked the tree
    interpreted_steps: int
    # (counter, start state as an int): where the replay starts
    _source: tuple = field(compare=False, repr=False)
    # the steps taken from macro leaves, _K at a time, and the step at which
    # the run turned macro leaves off for missing too often, 0 if it did not
    _macro: Tuple[int, int] = field(default=(0, 0), compare=False, repr=False)

    def replay(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(reads, writes, hamming)`` for each of the run's
        ``length`` steps, running the step function under a fresh ledger
        from the start state, with no tree. After the last step, raise
        AssertionError unless the replay's sums and maxima equal the
        report's."""
        counter, prev = self._source
        state = BitState.from_int(prev, self.dim)
        ledger = ProbeLedger()
        max_hamming = 0
        for _ in range(self.length):
            ledger.open_step()
            counter.advance(state, ledger)
            r, w = ledger.close_step()
            h = (prev ^ state.value).bit_count()
            max_hamming = max(max_hamming, h)
            prev = state.value
            yield r, w, h
        replayed = (ledger.total_reads, ledger.total_writes, ledger.max_reads, ledger.max_writes)
        reported = (self.total_reads, self.total_writes, self.worst_reads, self.worst_writes)
        if replayed != reported or max_hamming != self.max_hamming:
            raise AssertionError("the step-function replay disagrees with the report")

    # views kept for perfbench's traced layer split, which zips the two
    @property
    def step_reads(self) -> Iterator[int]:
        return (r for r, _, _ in self.replay())

    @property
    def step_writes(self) -> Iterator[int]:
        return (w for _, w, _ in self.replay())


# grafted paths test fewer positions than this, so that at large dimensions,
# where a step may read half the bits, the tree costs no work in proportion
# to the dimension; below 64 bits, only the dimension bounds a path
_MAX_PATH = 64

# the steps a macro leaf stands for
_K = 8

# a run stops trying macro leaves once its misses outnumber its hits by more
# than this
_MISS_MARGIN = 64


def _graft(tree: array, snap: int, first: int, then: int, longest: int) -> int:
    """Add a path for state ``snap`` below the node where its walk falls
    off ``tree``, and return the slot that is to hold its leaf.

    The path tests the positions the walk already tested, then the other
    positions of ``first``, then those of ``then``, each in position
    order; a state that reaches its leaf agrees with ``snap`` on all of
    them. A path of ``longest`` positions or more, or of none, is not
    added, and the slot is -1: one that tests all ``dim`` bits pins one
    state, which cannot recur before the cycle closes, and one of
    ``_MAX_PATH`` or more costs tree work in proportion to its length.
    """
    walked = 0
    slot = -1
    node = 0
    while tree:
        pos = tree[node]
        walked |= 1 << pos
        slot = node + 1 + ((snap >> pos) & 1)
        node = tree[slot]
        if not node:
            break
    if not 0 < (walked | first | then).bit_count() < longest:
        return -1
    for rest in (first & ~walked, then & ~first & ~walked):
        while rest:
            low = rest & -rest
            rest ^= low
            pos = low.bit_length() - 1
            node = len(tree)
            if slot >= 0:
                tree[slot] = node
            tree.extend((pos, 0, 0))
            slot = node + 1 + ((snap >> pos) & 1)
    return slot


def _block(tree: array, leaves: list, snap: int) -> Optional[Tuple[int, int, int, int, int]]:
    """The ``_K`` steps from state ``snap`` as the single-step tree, which
    is not empty, takes them, each down to a leaf: the positions their
    walks tested, the bits they flip in all, ~ the bits any of them flips,
    and their summed reads and writes. None if a step falls off the tree.

    Every leaf flips a fixed set of bits, and the states after each step
    of the block differ from those of ``snap`` by fixed masks. A state that
    agrees with ``snap`` on the tested positions therefore walks each step
    down the same path to the same leaf."""
    path = touched = reads = writes = 0
    start = snap
    for _ in range(_K):
        node = 0
        while True:
            pos = tree[node]
            path |= 1 << pos
            node = tree[node + 1 + ((snap >> pos) & 1)]
            if node <= 0:
                break
        if not node:
            return None
        flip, r, w = leaves[~node]
        touched |= flip
        reads += r
        writes += w
        snap ^= flip
    return path, snap ^ start, ~touched, reads, writes


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
    which holds the bits the step flips and its read and write counts. A
    step whose walk ends at a leaf applies it and adds one to the leaf's
    visit count; any other step runs the counter under the ledger and
    grafts its path. The totals are the ledger's, plus each leaf's counts
    times its visits, summed once after the run, plus the counts of every
    block taken from a macro leaf. Memory is O(tree size), whatever the
    cycle length; :meth:`CycleReport.replay` recomputes per-step figures.
    The trees live only as long as this call.

    A second tree, of the same layout, takes ``_K`` steps at a time. Its
    walk starts at step counts that are multiples of ``_K``. Its leaf is
    the block of ``_K`` steps from the state that grafted it, each of which
    walked the single-step tree to a leaf: the path tests every position
    those walks tested, and the leaf holds the bits the block flips, the
    bits any of its steps flips, and its summed reads and writes. A state
    that agrees with it on the path walks each step down the same path, so
    the block does the same to it. A state inside the block differs from
    the block's first state only in bits some step flips, so the block is
    taken whole only if the start state and the state Brent's rule saved
    each differ from its first state in some other bit, and only if it
    ends by the cap. Otherwise its steps run singly, and every reported
    field is what single steps give. No block crosses a save: a block
    starts at a multiple of ``_K``, and the next save, a power of two above
    it, is a multiple of ``_K`` too. Macro leaves are tried once the
    single-step tree holds a leaf, and not after their misses outnumber
    their hits by more than ``_MISS_MARGIN``.

    Brent's saves and block starts are both events at a step count,
    ``next_stop``, so a step that reaches neither pays one comparison, as
    it does once macro leaves are off. At a block start, a block recorded
    from the previous one is grafted, and then blocks are taken from macro
    leaves while they can be; a miss leaves the next ``_K`` steps to
    single steps, which record that block.
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
    longest = min(dim, _MAX_PATH)

    snap0 = state.value
    snap = snap0

    saved = snap0
    next_save = 1
    # the next step count at which a state is saved or a block may start
    next_stop = 1

    max_hamming = 0
    closed = False
    distinct = True
    steps = 0
    prev = snap0

    tree = array("i")
    leaves: list = []
    leaf_ids: Dict[tuple, int] = {}
    visits: list = []

    # the macro tree, whose leaves stand for _K steps from a block start;
    # its leaf ~off holds entries off to off + 3 of mleaves: the bits the
    # block flips, ~ the bits any of its steps flips, its reads and its
    # writes. Below 64 bits they fit in signed 64-bit ints.
    blocks = True
    mtree = array("i")
    mleaves = array("q") if dim < 64 else []
    hits = misses = macro_stop = 0
    block_reads = block_writes = 0
    # the state at which a block missing from mtree began, and the steps
    # the ledger had interpreted then
    recording = None
    recorded_at = 0

    child = 0  # only a walk assigns it, so it stays 0 while the tree is empty
    while steps < cap:
        if tree:
            node = 0
            while True:
                child = tree[node + 1 + ((snap >> tree[node]) & 1)]
                if child <= 0:
                    break
                node = child
        if child < 0:
            i = ~child
            snap ^= leaves[i][0]
            visits[i] += 1
        else:
            state.value = snap
            open_step()
            advance(state, ledger)
            snap = state.value
            if ledger.rmask.bit_count() < longest:
                rmask, wmask = ledger.rmask, ledger.wmask
                slot = _graft(tree, prev, rmask, wmask, longest)
                if slot >= 0:
                    leaf = (prev ^ snap, rmask.bit_count(), wmask.bit_count())
                    i = leaf_ids.setdefault(leaf, len(leaves))
                    if i == len(leaves):
                        leaves.append(leaf)
                        visits.append(0)
                    tree[slot] = ~i
            close_step()
            # a leaf changes as many bits as the step that grafted it, so
            # the interpreted steps hold the maximum
            h = (prev ^ snap).bit_count()
            if h > max_hamming:
                max_hamming = h
        steps += 1
        if snap == snap0:
            closed = True
            break
        if snap == saved:
            distinct = False
            break
        if steps == next_stop:
            if steps == next_save:
                saved = snap
                next_save <<= 1
            if blocks and tree and not steps % _K:
                if recording is not None:
                    # a block that interpreted a step is left to a later
                    # miss, which its grafts may turn into tree hits
                    slot = -1
                    if ledger.steps == recorded_at:
                        block = _block(tree, leaves, recording)
                        if block is not None:
                            slot = _graft(mtree, recording, block[0], 0, longest)
                    if slot >= 0:
                        mtree[slot] = ~len(mleaves)
                        mleaves.extend(block[1:])
                    recording = None
                    misses += 1
                    if misses - hits > _MISS_MARGIN:
                        blocks = False
                        macro_stop = steps
                        mtree = mleaves = None
                # the next save, a power of two above a multiple of _K, is
                # at or past the block's end; a block is taken whole only
                # where no state in it can equal the start or the saved state
                while blocks and steps + _K <= cap:
                    leaf = 0
                    if mtree:
                        node = 0
                        while True:
                            leaf = mtree[node + 1 + ((snap >> mtree[node]) & 1)]
                            if leaf <= 0:
                                break
                            node = leaf
                    if not leaf:
                        recording = snap
                        recorded_at = ledger.steps
                        break
                    off = ~leaf
                    untouched = mleaves[off + 1]
                    if not (snap ^ snap0) & untouched or not (snap ^ saved) & untouched:
                        break
                    snap ^= mleaves[off]
                    block_reads += mleaves[off + 2]
                    block_writes += mleaves[off + 3]
                    hits += 1
                    steps += _K
                    if steps == next_save:
                        saved = snap
                        next_save <<= 1
            next_stop = next_save
            if blocks and tree:
                next_stop = min(next_save, (steps | (_K - 1)) + 1)
        prev = snap

    total_reads = ledger.total_reads + block_reads
    total_writes = ledger.total_writes + block_writes
    for (_, r, w), n in zip(leaves, visits):
        total_reads += n * r
        total_writes += n * w
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
        interpreted_steps=ledger.steps,
        _source=(counter, snap0),
        _macro=(_K * hits, macro_stop),
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
    bits and every step wrote at most c bits.

    The report's maxima decide. Only a failing check replays the run, and
    only up to its first violating step, which it names."""
    if c < 1:
        raise UsageError(f"c must be >= 1, got {c}")
    if not report.closed or not report.distinct:
        raise UsageError("verify_quasi_gray needs a closed, distinct report")
    if report.max_hamming <= c and report.worst_writes <= c:
        return QuasiGrayCheck(passed=True, c=c)
    # a replay that ends raises unless its maxima are the report's, so a
    # step of it exceeds c first
    for step, (_, w, h) in enumerate(report.replay(), 1):
        if h > c:
            return QuasiGrayCheck(False, c, step, "hamming", h)
        if w > c:
            return QuasiGrayCheck(False, c, step, "writes", w)


# significant digits of every decimal rendering in reports
DECIMAL_DIGITS = 10


def decimal_str(value: Fraction) -> str:
    """Deterministic decimal rendering to :data:`DECIMAL_DIGITS` significant
    digits, with the text of ``Decimal`` division.

    The quotient is taken with integers, scaled to DECIMAL_DIGITS + 2 or more
    digits (log10 2 < 0.30103), so no huge operand reaches ``Decimal``. An
    inexact one lies strictly between two consecutive scaled integers, where
    no rounding tie falls, so it rounds as the floor with a digit 1 appended.
    Only an exact quotient, whose text drops trailing zeros, is divided."""
    num, den = value.numerator, value.denominator
    bits = den.bit_length() - num.bit_length() + 1
    shift = DECIMAL_DIGITS + 2 - (-bits * 30103 // 100000)
    if shift >= 0:
        q, r = divmod(num * 10**shift, den)
    else:
        q, r = divmod(num, den * 10**-shift)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        if r:
            quotient = Decimal(10 * q + 1).scaleb(-shift - 1)
        else:
            quotient = Decimal(num) / Decimal(den)
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
    return CounterSpec(
        name="binary",
        dim=dim,
        params={"dim": dim},
        initial=BitState.zeros(dim),
        advance=standard_binary_step,
        claimed_c=dim,
    )
