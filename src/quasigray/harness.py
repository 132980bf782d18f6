"""Exhaustive cycle enumeration and metric collection.

``enumerate_cycle`` steps a counter from its initial state until the
initial state recurs (or a cap is hit), detecting in constant memory a run
that can never return, and aggregates the ledger's probe charges into
exact rational metrics. Nothing here depends on floating point, so two
runs of the same enumeration are bit-identical.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .probes import BitState, CounterSpec, ProbeLedger, UsageError, increment_field

DEFAULT_CYCLE_CAP = 1 << 26


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
    # the steps taken from macro leaves, the step at which the run turned
    # macro leaves off for missing too often (0 if it did not), the number
    # of blocks taken, of any size, and the largest taken while the run
    # doubled blocks (0 if it never did)
    _macro: Tuple[int, int, int, int] = field(default=(0, 0, 0, 0), compare=False, repr=False)

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

# the steps a macro leaf of the first size stands for
_K = 8

# a run stops trying macro leaves once its misses outnumber its hits by more
# than this
_MISS_MARGIN = 64

# a run doubles blocks from a save at which it has gone this many steps or
# more for each block it missed; one that misses more often is too short or
# too irregular for a doubled leaf to be taken as often as its build costs
_STEPS_PER_MISS = 128

# and builds doubled leaves only while it holds fewer than this many macro
# leaves, of any size, for each block it missed, so that its macro tree
# stays within a constant factor of the one blocks of _K steps alone grow
_LEAVES_PER_MISS = 16

# a stride table indexes this many bits at most, so that it stays within
# 256 bytes
_STRIDE_BITS = 6

# a tree gets its first stride table once it holds this many nodes, and a
# new one each time it has doubled since, so that the builds cost time in
# proportion to the final tree
_STRIDE_FROM = 8


def _walk(tree: array, node: int, snap: int, walked: int) -> Tuple[int, int]:
    """Walk state ``snap`` down ``tree`` from ``node`` to a child that is no
    node: return ``walked`` with the positions the walk tested, and the
    slot that holds the child."""
    while True:
        pos = tree[node]
        walked |= 1 << pos
        slot = node + 1 + ((snap >> pos) & 1)
        node = tree[slot]
        if node <= 0:
            return walked, slot


def _stride(tree: array, dim: int) -> Tuple[array, int, int]:
    """The stride table of ``tree``, the position ``lo`` its root tests and
    the table's index mask. Entry i is the node at which a walk from the
    root stops while it tests only positions lo to lo + k - 1, for a state
    whose bits there are i: the first node that tests another position, or
    whose child there is no node. Its 2^k entries are at most half the
    tree's nodes, so that a small tree's walks repay its table's build."""
    lo = tree[0]
    k = min(_STRIDE_BITS, (len(tree) // 3).bit_length() - 2, dim - lo)
    table = array("i", [0]) * (1 << k)
    for i in range(1 << k):
        node = 0
        while 0 <= (at := tree[node] - lo) < k:
            child = tree[node + 1 + ((i >> at) & 1)]
            if child <= 0:
                break
            node = child
        table[i] = node
    return table, lo, (1 << k) - 1


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
    walked, slot = _walk(tree, 0, snap, 0) if tree else (0, -1)
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


def _block(tree: array, leaves: list, snap: int, shift: int) -> Tuple[int, tuple]:
    """The ``_K`` steps from state ``snap`` as the single-step tree takes
    them, each down to a leaf: the positions their walks tested, and the
    entries of their macro leaf, which has no continuation yet. The caller
    passes a block whose steps all walked to a leaf when it ran, so each
    walk repeated here ends at one too.

    Every leaf flips a fixed set of bits, and the states after each step
    of the block differ from those of ``snap`` by fixed masks. A state that
    agrees with ``snap`` on the tested positions therefore walks each step
    down the same path to the same leaf."""
    path = touched = reads = writes = 0
    start = snap
    for _ in range(_K):
        path, slot = _walk(tree, 0, snap, path)
        flip, r, w = leaves[~tree[slot]]
        touched |= flip
        reads += r
        writes += w
        snap ^= flip
    return path, (snap ^ start, ~touched, reads << shift | writes, 0)


def _hang(
    mtree: array, mleaves, snap: int, a: int, walked: int, path: int, entries: tuple, longest: int
) -> None:
    """Add macro leaf ``entries`` to the continuation of leaf ``~a`` where
    state ``snap``'s walk of it falls off, below a node for each position
    of ``path`` that neither that walk nor ``walked``, the positions tested
    on the way to leaf ``~a``, holds; a state that reaches the new leaf
    agrees with ``snap`` on all of them. As in :func:`_graft`, no path of
    ``longest`` positions or more is added."""
    slot = -1
    node = mleaves[a + 3]
    if node:
        walked, slot = _walk(mtree, node, snap, walked)
    if (walked | path).bit_count() >= longest:
        return
    leaf = ~len(mleaves)
    mleaves.extend(entries)
    rest = path & ~walked
    top = len(mtree) if rest else leaf
    if slot < 0:
        mleaves[a + 3] = top
    else:
        mtree[slot] = top
    while rest:
        low = rest & -rest
        rest ^= low
        pos = low.bit_length() - 1
        node = len(mtree)
        mtree.extend((pos, 0, 0))
        slot = node + 1 + ((snap >> pos) & 1)
        mtree[slot] = len(mtree) if rest else leaf


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
    step whose walk ends at a leaf applies it; any other step runs the
    counter under the ledger and grafts its path. Every leaf taken, of
    either tree, adds its reads and writes to the run's sums as it is
    taken, and the totals are those sums plus the ledger's. Memory is
    O(tree size), whatever the cycle length; :meth:`CycleReport.replay`
    recomputes per-step figures. The trees live only as long as this call.

    A second tree, of the same layout, takes blocks of steps. Its walk
    starts at step counts that are multiples of ``_K``, and its leaves
    stand for ``_K`` steps: each is the block from the state that grafted
    it, whose steps all walked the single-step tree to a leaf. Its path
    tests every position those walks tested, and it holds the bits the
    block flips, ~ the bits any of its steps flips, its reads and writes
    packed in one int, and a continuation. A state that agrees with it on
    the path walks each step down the same path, so the block does the
    same to it.

    A continuation doubles a leaf of m steps. It is a subtree of the same
    array that tests only the positions that the next m steps' path adds,
    and its leaves stand for 2m steps, each with a continuation of its own.
    A block start at a multiple of 2m climbs from its leaf of m steps
    through the continuation; where that misses, the leaf in hand is taken.
    If the next block start takes a leaf of m steps too, a leaf of 2m is
    built from the two: path P1 ∪ P2, flips F1 ^ F2, untouched bits
    U1 & U2, summed counts, never re-run steps. It keeps its path, the
    positions its block depends on. A run climbs and builds only from a
    save at which it has gone ``_STEPS_PER_MISS`` steps or more for each
    block it missed, and builds only while it holds fewer than
    ``_LEAVES_PER_MISS`` macro leaves for each.

    A state inside a block differs from the block's first state only in
    bits some step flips, so a block is taken whole only if the start state
    and the state Brent's rule saved each differ from its first state in
    some other bit, and only if it ends by the cap; a climb stops below a
    leaf that fails either test. A block of m steps starts at a multiple of
    m, and the next save, a power of two above it, is a multiple of m too,
    so no block crosses a save. Macro leaves are tried once the single-step
    tree holds a leaf, and not after the blocks missed outnumber the
    ``_K``-step blocks taken by more than ``_MISS_MARGIN``. Where no block
    is taken, the steps run singly, and every reported field is what single
    steps give.

    Brent's saves and block starts are both events at a step count,
    ``next_stop``, so a step that reaches neither pays one comparison, as
    it does once macro leaves are off. At a block start, a block recorded
    from the previous one is grafted, and then blocks are taken from macro
    leaves while they can be; a miss leaves the next ``_K`` steps to
    single steps, which record that block.

    Both trees' walks start at an entry of a stride table (:func:`_stride`,
    the LC-trie's level compression at the root): the root alone until the
    tree holds ``_STRIDE_FROM`` nodes, then built anew each time the tree
    has doubled, so builds cost O(tree size). Grafts add nodes only below,
    so an entry stays an ancestor of where a walk from the root ends: a
    table never goes wrong, only shallow.
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
    # the stride tables of the two trees, the positions their indexes start
    # at, their masks and the tree lengths at which they are next rebuilt
    table, lo, mask = mtable, mlo, mmask = array("i", [0]), 0, 0
    restride = mrestride = 3 * _STRIDE_FROM
    leaves: list = []
    leaf_ids: Dict[tuple, int] = {}
    # the reads and writes of the single-step leaves taken
    reads = writes = 0

    # the macro tree; its leaf ~off holds entries off to off + 3 of mleaves:
    # the bits the block flips, ~ the bits any of its steps flips, its reads
    # << shift | its writes, and its continuation: 0 while it has none, else
    # a node of mtree (never node 0, the root) or a leaf. A leaf of more
    # than _K steps holds its path at off + 4. The steps of a leaf write
    # fewer than _MAX_PATH bits each, as their grafts test them, so the
    # packed counts of a run's takes sum without carrying writes into reads.
    # Below 64 bits and with shift below 55, a leaf of _K steps fits signed
    # 64-bit ints.
    blocks = True
    grow = False
    mtree = array("i")
    shift = (_MAX_PATH * cap).bit_length()
    mleaves = array("q") if dim < 64 and shift < 55 else []
    # the packed counts of the macro leaves taken, the steps they stood
    # for, their number and the largest taken while doubling
    charged = taken = takes = top = 0
    misses = macro_stop = 0
    # the step at which a take follows one whose continuation missed, and
    # that take's size, leaf and first state
    pend_at = 0
    pend = None
    # the state at which a block missing from mtree began, and the steps
    # the ledger had interpreted then
    recording = None
    recorded_at = 0

    child = 0  # only a walk assigns it, so it stays 0 while the tree is empty
    while steps < cap:
        if tree:
            node = table[(snap >> lo) & mask]
            while True:
                child = tree[node + 1 + ((snap >> tree[node]) & 1)]
                if child <= 0:
                    break
                node = child
        if child < 0:
            flip, r, w = leaves[~child]
            snap ^= flip
            reads += r
            writes += w
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
                    tree[slot] = ~i
                    if len(tree) >= restride:
                        # drop the old table first, so that two never
                        # count towards the run's peak together
                        table = None
                        table, lo, mask = _stride(tree, dim)
                        restride = 2 * len(tree)
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
                grow = steps >= _STEPS_PER_MISS * misses
            if blocks and tree and not steps % _K:
                if recording is not None:
                    # a block that interpreted a step is left to a later
                    # miss, which its grafts may turn into tree hits
                    slot = -1
                    if ledger.steps == recorded_at:
                        path, entries = _block(tree, leaves, recording, shift)
                        slot = _graft(mtree, recording, path, 0, longest)
                    if slot >= 0:
                        mtree[slot] = ~len(mleaves)
                        mleaves.extend(entries)
                        if len(mtree) >= mrestride:
                            mtable = None
                            mtable, mlo, mmask = _stride(mtree, dim)
                            mrestride = 2 * len(mtree)
                    recording = None
                    misses += 1
                    if _K * (misses - _MISS_MARGIN) > taken:
                        blocks = False
                        macro_stop = steps
                        mtree = mleaves = mtable = None
                # the next save, a power of two above a multiple of the
                # block size, is at or past the block's end; a block is
                # taken whole only where no state in it can equal the start
                # or the saved state
                while blocks and steps + _K <= cap:
                    leaf = 0
                    if mtree:
                        node = mtable[(snap >> mlo) & mmask]
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
                    size = _K
                    if grow:
                        # a block of 2 * size may start here if size <= room
                        room = steps & -steps
                        if room > cap - steps:
                            room = cap - steps
                        room >>= 1
                        up = mleaves[off + 3]
                        while size <= room:
                            while up > 0:
                                up = mtree[up + 1 + ((snap >> mtree[up]) & 1)]
                            if not up:
                                pend_at = steps + size
                                pend = (size, off, snap)
                                break
                            untouched = mleaves[~up + 1]
                            if not (snap ^ snap0) & untouched or not (snap ^ saved) & untouched:
                                break
                            off = ~up
                            size <<= 1
                            up = mleaves[off + 3]
                        if (
                            steps == pend_at
                            and size == pend[0]
                            and len(mleaves) < 4 * _LEAVES_PER_MISS * misses
                        ):
                            # double the missed leaf with the one in hand,
                            # if their packed counts fit a signed 64-bit int
                            _, a, first = pend
                            if size == _K:
                                first_path = _walk(mtree, 0, first, 0)[0]
                                path = _walk(mtree, 0, snap, 0)[0]
                            else:
                                first_path, path = mleaves[a + 4], mleaves[off + 4]
                            entries = (
                                mleaves[a] ^ mleaves[off],
                                mleaves[a + 1] & mleaves[off + 1],
                                mleaves[a + 2] + mleaves[off + 2],
                                0,
                                first_path | path,
                            )
                            if not entries[2] >> 63:
                                _hang(mtree, mleaves, first, a, first_path, path, entries, longest)
                        if size > top:
                            top = size
                    snap ^= mleaves[off]
                    charged += mleaves[off + 2]
                    taken += size
                    takes += 1
                    steps += size
                    if steps == next_save:
                        saved = snap
                        next_save <<= 1
                        grow = steps >= _STEPS_PER_MISS * misses
            next_stop = next_save
            if blocks and tree:
                next_stop = min(next_save, (steps | (_K - 1)) + 1)
        prev = snap

    total_reads = ledger.total_reads + reads + (charged >> shift)
    total_writes = ledger.total_writes + writes + (charged & ((1 << shift) - 1))
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
        _macro=(taken, macro_stop, takes, top),
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


# the report fields a metrics row holds, in the order reports print them
CSV_COLUMNS = (
    "counter",
    "dim",
    "params",
    "length",
    "closed",
    "distinct",
    "space_efficiency",
    "avg_reads",
    "worst_reads",
    "avg_writes",
    "worst_writes",
    "max_hamming",
)


def collect_metrics(report: CycleReport) -> Dict[str, object]:
    """Flatten a report, closed or not, into one row keyed by
    :data:`CSV_COLUMNS`. A rational carries num/den and a
    :data:`DECIMAL_DIGITS`-significant-digit decimal rendering, the
    parameters become one stable ``k=v;...`` cell without the dimension,
    and every other value is the report's own."""
    row: Dict[str, object] = {}
    for col in CSV_COLUMNS:
        value = getattr(report, col)
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            value = {"num": num, "den": den, "decimal": decimal_str(value)}
        elif isinstance(value, dict):
            value = ";".join(f"{k}={v}" for k, v in sorted(value.items()) if k != "dim")
        row[col] = value
    return row


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
