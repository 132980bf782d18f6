import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigray import BitState, ProbeLedger, UsageError
from quasigray import brgc, composite, lazy, rpgc
from quasigray.probes import MAX_DIM


def make_pair(dim=4):
    state = BitState.zeros(dim)
    ledger = ProbeLedger()
    ledger.open_step()
    return state, ledger


def test_reading_same_bit_twice_charges_once():
    state, ledger = make_pair()
    ledger.read(state, 2)
    ledger.read(state, 2)
    assert ledger.close_step() == (1, 0)


def test_bit_written_earlier_in_step_is_free_to_read():
    state, ledger = make_pair()
    ledger.write(state, 0, 1)
    assert ledger.read(state, 0) == 1
    assert ledger.close_step() == (0, 1)


def test_empty_step_counts_nothing():
    _, ledger = make_pair()
    assert ledger.close_step() == (0, 0)


def test_rewriting_a_position_counts_one_write():
    state, ledger = make_pair()
    ledger.write(state, 1, 1)
    ledger.write(state, 1, 1)
    assert ledger.close_step() == (0, 1)


def test_two_distinct_writes():
    state, ledger = make_pair()
    ledger.write(state, 0, 1)
    ledger.write(state, 3, 1)
    assert ledger.close_step() == (0, 2)


def test_out_of_range_access_is_a_usage_error():
    state, ledger = make_pair(dim=4)
    with pytest.raises(UsageError):
        ledger.write(state, 4, 1)
    with pytest.raises(UsageError):
        ledger.read(state, -1)


def test_access_outside_a_step_is_a_usage_error():
    state = BitState.zeros(3)
    ledger = ProbeLedger()
    with pytest.raises(UsageError):
        ledger.read(state, 0)
    with pytest.raises(UsageError):
        ledger.write(state, 0, 1)
    with pytest.raises(UsageError):
        ledger.close_step()


def test_totals_and_maxima_accumulate_across_steps():
    state = BitState.zeros(4)
    ledger = ProbeLedger()
    ledger.open_step()
    for pos in (0, 1, 2):
        ledger.read(state, pos)
    assert ledger.close_step() == (3, 0)
    ledger.open_step()
    ledger.read(state, 1)
    assert ledger.close_step() == (1, 0)
    assert ledger.total_reads == 4
    assert ledger.max_reads == 3
    assert ledger.steps == 2


def test_blind_write_does_not_charge_a_read():
    state, ledger = make_pair()
    ledger.write(state, 3, 1)
    reads, writes = ledger.close_step()
    assert (reads, writes) == (0, 1)
    assert state.bits[3] == 1


def test_double_open_rejected():
    _, ledger = make_pair()
    with pytest.raises(UsageError):
        ledger.open_step()


def test_bitstate_text_form_prints_high_bit_first():
    s = BitState(3, [1, 0, 0])  # bit 0 set
    assert s.to_text() == "001"
    assert BitState.from_text("001").bits == (1, 0, 0)


def test_bitstate_is_unhashable():
    # a state changes under every write, so it compares by value but is no key
    with pytest.raises(TypeError):
        hash(BitState(3))
    assert BitState.from_text("011") == BitState.from_int(3, 3)


def test_bitstate_parser_rejects_other_characters():
    with pytest.raises(UsageError):
        BitState.from_text("01x")
    with pytest.raises(UsageError):
        BitState.from_text("")


def test_bitstate_validation():
    with pytest.raises(UsageError):
        BitState(0)
    with pytest.raises(UsageError):
        BitState(2, [0, 2])
    with pytest.raises(UsageError):
        BitState.from_int(8, 3)
    assert BitState.zeros(MAX_DIM).dim == MAX_DIM
    for build in (
        lambda: BitState.zeros(MAX_DIM + 1),
        lambda: BitState.from_int(0, MAX_DIM + 1),
        lambda: BitState.from_text("0" * (MAX_DIM + 1)),
    ):
        with pytest.raises(UsageError, match="dimension must be between"):
            build()


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
def test_bitstate_text_round_trip(bits):
    s = BitState(len(bits), bits)
    assert BitState.from_text(s.to_text()) == s
    assert BitState.from_int(s.value, s.dim) == s


@pytest.mark.parametrize("dim", range(1, 11))
def test_every_value_round_trips_through_bits_and_text(dim):
    for value in range(1 << dim):
        s = BitState.from_int(value, dim)
        assert s.value == value
        assert BitState(dim, s.bits) == s
        assert BitState.from_text(s.to_text()) == s
        assert s.bits == tuple((value >> i) & 1 for i in range(dim))
        assert int(s.to_text(), 2) == value


def test_bits_is_a_read_only_view():
    s = BitState.from_int(5, 3)
    with pytest.raises(TypeError):
        s.bits[1] = 1
    with pytest.raises(AttributeError):
        s.bits = (0, 0, 0)
    assert s.value == 5


def _loop_of_read(state, ledger, off, width, want):
    out = 0
    for j in range(width):
        v = ledger.read(state, off + j)
        out |= v << j
        if want is not None and v != (want >> j) & 1:
            break
    return out


def _loop_of_pairs(state, ledger, a, b, n):
    for i in range(n):
        if ledger.read(state, a + i) != ledger.read(state, b + i):
            return i
    return n


def _loop_of_zip(state, ledger, a, b, n, want_a, want_b):
    for i in range(n):
        if ledger.read(state, a + i) != (want_a >> i) & 1:
            return False
        if ledger.read(state, b + i) != (want_b >> i) & 1:
            return False
    return True


def _outcome(call, state, ledger, *args):
    try:
        result = call(state, ledger, *args)
    except UsageError as exc:
        result = ("UsageError", str(exc))
    return result, ledger.rmask, ledger.wmask, state.value


def _same_as_the_loop(loop, scan, case, *args):
    """Run ``loop`` and the ledger method named ``scan`` on equal states,
    each in a step that has already made the case's reads and writes, and
    compare the outcomes."""
    dim, bits, reads, writes = case
    outcomes = []
    for call in (loop, lambda s, led, *args: getattr(led, scan)(s, *args)):
        state = BitState(dim, bits)
        ledger = ProbeLedger()
        ledger.open_step()
        for pos in reads:
            ledger.read(state, pos)
        for pos, val in writes:
            ledger.write(state, pos, val)
        outcomes.append(_outcome(call, state, ledger, *args))
    assert outcomes[1] == outcomes[0]


@st.composite
def _step_so_far(draw, dim):
    """A state's bits and the reads and writes its open step has made."""
    bits = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    position = st.integers(min_value=0, max_value=dim - 1)
    reads = draw(st.lists(position, max_size=dim))
    writes = draw(st.lists(st.tuples(position, st.integers(0, 1)), max_size=dim))
    return dim, bits, reads, writes


def _bits_at(bits, off, n):
    """The in-range bits of positions off .. off+n-1, bit off lowest."""
    return sum(bits[off + i] << i for i in range(n) if 0 <= off + i < len(bits))


def _wanted(draw, bits, off, n):
    """Wanted bits for positions off .. off+n-1 that often equal the actual
    ones, or differ from them in a single bit."""
    dim = len(bits)
    noise = st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=dim).map(lambda i: 1 << i),
        st.integers(min_value=0, max_value=(1 << (dim + 2)) - 1),
    )
    return _bits_at(bits, off, n) ^ draw(noise)


@st.composite
def _run_cases(draw):
    """A run of width positions, out of range or negative at times, and no
    wanted bits, all zeros, all ones, or a pattern near the actual bits."""
    dim = draw(st.integers(min_value=1, max_value=12))
    off = draw(st.integers(min_value=-1, max_value=dim))
    width = draw(st.integers(min_value=0, max_value=dim + 1))
    step = draw(_step_so_far(dim))
    want = draw(st.sampled_from([None, 0, -1, _wanted(draw, step[1], off, width)]))
    return step, off, width, want


@settings(max_examples=1000)
@given(_run_cases())
def test_read_run_charges_like_the_loop_of_read(case):
    step, off, width, want = case
    _same_as_the_loop(_loop_of_read, "read_run", step, off, width, want)


@st.composite
def _pair_cases(draw):
    """Two runs of n positions, out of range or negative at times, over bits
    in which run b often starts as a copy of run a, so that scans also run
    to the end; and wanted bits that often differ from the actual ones in
    a single bit or not at all."""
    dim = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.integers(min_value=-2, max_value=dim + 1))
    b = draw(st.integers(min_value=-2, max_value=dim + 1))
    n = draw(st.integers(min_value=-1, max_value=dim + 1))
    dim, bits, reads, writes = draw(_step_so_far(dim))
    if draw(st.booleans()):
        for i in range(n):
            if 0 <= a + i < dim and 0 <= b + i < dim:
                bits[b + i] = bits[a + i]
    want_a = _wanted(draw, bits, a, n)
    want_b = _wanted(draw, bits, b, n)
    return (dim, bits, reads, writes), a, b, n, want_a, want_b


@settings(max_examples=1000)
@given(_pair_cases())
def test_read_pairs_charges_like_the_loop_of_read(case):
    step, a, b, n, _, _ = case
    _same_as_the_loop(_loop_of_pairs, "read_pairs", step, a, b, n)


@settings(max_examples=1000)
@given(_pair_cases())
def test_read_zip_charges_like_the_loop_of_read(case):
    step, a, b, n, want_a, want_b = case
    _same_as_the_loop(_loop_of_zip, "read_zip", step, a, b, n, want_a, want_b)


def test_read_run_outside_a_step_is_a_usage_error():
    state = BitState.zeros(3)
    ledger = ProbeLedger()
    for scan in (
        lambda: ledger.read_run(state, 0, 2),
        lambda: ledger.read_pairs(state, 0, 1, 1),
        lambda: ledger.read_zip(state, 0, 1, 1, 0, 0),
    ):
        with pytest.raises(UsageError, match="no open step"):
            scan()
    assert ledger.rmask == 0


# Step code reaches a state's bits only through the ledger. These are the
# attributes of BitState that expose its bits in bulk, and the only places in
# the counter modules allowed to use them: brgc's untracked rank oracle, and
# the rank table lazy builds, under its own ledger, for an rpgc pointer.
BULK_VIEWS = {"value", "bits", "to_text", "copy"}
BULK_VIEW_ALLOWED = {
    ("brgc", "_rank_range", "value"),
    ("lazy", "_rpgc_rank_table", "value"),
}


def _bulk_view_uses(module):
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in BULK_VIEWS:
            found.add((module.__name__.rsplit(".", 1)[1], where, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_counter_modules_see_bits_only_through_the_ledger():
    found = set()
    for module in (brgc, rpgc, lazy, composite):
        found |= _bulk_view_uses(module)
    assert found == BULK_VIEW_ALLOWED


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _reads_in_loops(module):
    """The functions of ``module`` with a loop (``for``, ``while`` or a
    comprehension) that calls ``.read(``: a scan bit by bit, where one
    ledger call would do."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, LOOPS):
                continue
            for call in ast.walk(loop):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "read"
                ):
                    found.add((module.__name__.rsplit(".", 1)[1], func.name))
    return found


def test_counter_modules_never_read_bit_by_bit_in_a_loop():
    found = set()
    for module in (brgc, rpgc, lazy, composite):
        found |= _reads_in_loops(module)
    assert found == set()
