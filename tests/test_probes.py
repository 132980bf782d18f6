import ast
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigray import BitState, ProbeLedger, UsageError
from quasigray import brgc, composite, lazy, probes, rpgc
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


def _prepared(case):
    """A state with the case's bits, and a ledger whose open step has
    already made the case's reads and writes."""
    dim, bits, reads, writes = case
    state = BitState(dim, bits)
    ledger = ProbeLedger()
    ledger.open_step()
    for pos in reads:
        ledger.read(state, pos)
    for pos, val in writes:
        ledger.write(state, pos, val)
    return state, ledger


def _outcome(call, case, *args):
    state, ledger = _prepared(case)
    try:
        result = call(state, ledger, *args)
    except UsageError:
        result = UsageError
    return result, ledger.rmask, ledger.wmask, state.value


def _same_as_the_loop(loop, scan, case, n, starts, *args):
    """Run the ledger method named ``scan`` on a prepared case and compare
    its outcome with its ``loop`` of read when each of its runs, of ``n``
    positions from each of ``starts``, is empty or inside the state.
    Otherwise the scan must raise and leave the masks and state as they
    were."""
    outcome = _outcome(lambda s, led, *a: getattr(led, scan)(s, *a), case, *args)
    if n == 0 or n > 0 and all(0 <= start <= case[0] - n for start in starts):
        assert outcome == _outcome(loop, case, *args)
    else:
        assert outcome == _outcome(lambda s, led: UsageError, case)


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
    _same_as_the_loop(_loop_of_read, "read_run", step, width, [off], off, width, want)


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


def _loop_of_equality(state, ledger, a, b, n):
    return _loop_of_pairs(state, ledger, a, b, n) == n


@settings(max_examples=1000)
@given(_pair_cases())
def test_read_zip_without_wants_charges_like_the_loop_of_pairs(case):
    step, a, b, n, _, _ = case
    _same_as_the_loop(_loop_of_equality, "read_zip", step, n, [a, b], a, b, n)


@settings(max_examples=1000)
@given(_pair_cases())
def test_read_zip_charges_like_the_loop_of_read(case):
    step, a, b, n, want_a, want_b = case
    _same_as_the_loop(_loop_of_zip, "read_zip", step, n, [a, b], a, b, n, want_a, want_b)


def _empty_table(width):
    """A table with no entry filled, for a call on ``width`` bits."""
    return array("H", bytes(2 << width))


def _low_flips_high(sub, ledger):
    """A call that reads bit 0 and, when it is set, flips bit 1 and
    returns True."""
    if not ledger.read(sub, 0):
        return False
    ledger.write(sub, 1, ledger.read(sub, 1) ^ 1)
    return True


@pytest.mark.parametrize(
    "value,earlier,runs,result,charges",
    [
        # one run at 2: a bit written earlier in the step stays free
        (0b0101, True, (2,), True, (0b1100, 0b1001, 0b1101)),
        (0b0111, False, (2,), True, (0b1100, 0b1000, 0b1111)),
        (0b1010, False, (2,), False, (0b0100, 0, 0b1010)),
        # two runs of one bit, at 2 and then at 0
        (0b0100, False, (2, 0), True, (0b0101, 0b0001, 0b0101)),
        (0b0001, False, (2, 0), False, (0b0100, 0, 0b0001)),
    ],
)
def test_read_table_charges_and_writes_as_its_call_would(value, earlier, runs, result, charges):
    table = _empty_table(2)
    widths = []

    def call(sub, ledger):
        widths.append(sub.dim)
        return _low_flips_high(sub, ledger)

    for _ in range(2):
        state = BitState.from_int(value, 4)
        ledger = ProbeLedger()
        ledger.open_step()
        if earlier:
            ledger.write(state, 0, value & 1)
        n = 2 if len(runs) == 1 else 1
        assert ledger.read_table(state, runs[0], n, table, call, *runs[1:]) is result
        assert (ledger.rmask, ledger.wmask, state.value) == charges
    # the second call took the entry the first one filled
    assert widths == [2]


def test_read_table_refuses_a_call_that_writes_a_bit_unchanged():
    state = BitState.from_int(0b11, 2)
    ledger = ProbeLedger()
    ledger.open_step()
    table = array("H", bytes(8))
    with pytest.raises(UsageError, match="flip every bit"):
        ledger.read_table(state, 0, 2, table, lambda sub, led: led.write(sub, 1, 1))
    assert (ledger.rmask, ledger.wmask, state.value, table[3]) == (0, 0, 0b11, 0)


def test_read_run_outside_a_step_is_a_usage_error():
    state = BitState.zeros(3)
    ledger = ProbeLedger()
    for scan in (
        lambda: ledger.read_run(state, 0, 2),
        lambda: ledger.read_zip(state, 0, 1, 1),
        lambda: ledger.read_zip(state, 0, 1, 1, 0, 0),
        lambda: ledger.read_table(state, 0, 2, _empty_table(2), _low_flips_high),
        lambda: ledger.read_table(state, 0, 1, _empty_table(2), _low_flips_high, 2),
    ):
        with pytest.raises(UsageError, match="no open step"):
            scan()
    assert ledger.rmask == 0


def test_a_scan_of_no_positions_reads_nothing_and_returns_its_loops_result():
    state = BitState.from_text("01011")
    ledger = ProbeLedger()
    ledger.open_step()
    table = _empty_table(0)
    # even where its runs would start outside the state
    for off in (0, 5, -1):
        assert ledger.read_run(state, off, 0, 0) == 0
        assert ledger.read_zip(state, off, 1, 0) is True
        assert ledger.read_zip(state, off, 1, 0, 1, 1) is True
        assert ledger.read_table(state, off, 0, table, _low_flips_high) is False
        assert ledger.read_table(state, off, 0, table, _low_flips_high, 1) is False
    assert (ledger.rmask, ledger.wmask, state.value, table[0]) == (0, 0, 0b01011, 0)


@pytest.mark.parametrize(
    "scan",
    [
        # each loop of read would stop inside the state, at bit dim - 2 or 0
        lambda led, s: led.read_run(s, s.dim - 2, 5, 0),
        lambda led, s: led.read_zip(s, 0, s.dim - 1, 3),
        lambda led, s: led.read_zip(s, 0, s.dim - 1, 3, 0, 0),
        lambda led, s: led.read_run(s, 0, -1),
        lambda led, s: led.read_zip(s, 0, 1, -2),
        # the call itself would touch only bits dim - 2 and dim - 1
        lambda led, s: led.read_table(s, s.dim - 2, 3, _empty_table(3), _low_flips_high),
        lambda led, s: led.read_table(s, 0, 2, _empty_table(4), _low_flips_high, s.dim - 1),
        lambda led, s: led.read_table(s, -1, 2, _empty_table(4), _low_flips_high, 2),
        lambda led, s: led.read_table(s, 0, -1, _empty_table(2), _low_flips_high),
    ],
    ids=[
        "run",
        "pairs",
        "zip",
        "negative-run",
        "negative-pairs",
        "table",
        "two-run-table",
        "negative-offset-table",
        "negative-table",
    ],
)
def test_a_scan_that_leaves_the_state_raises_and_charges_nothing(scan):
    state = BitState.from_text("01011")
    ledger = ProbeLedger()
    ledger.open_step()
    with pytest.raises(UsageError):
        scan(ledger, state)
    assert (ledger.rmask, ledger.wmask, state.value) == (0, 0, 0b01011)


# Step code reaches a state's bits only through the ledger. These are the
# attributes of BitState that expose its bits in bulk, and the only places in
# the counter modules allowed to use them: brgc's untracked rank oracle.
BULK_VIEWS = {"value", "bits", "to_text", "copy"}
BULK_VIEW_ALLOWED = {("brgc", "brgc_rank", "value")}


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


def _ledger_methods_calling_read(path):
    """The methods of ``ProbeLedger`` in ``path`` that call ``self.read``."""
    tree = ast.parse(Path(path).read_text())
    ledger = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ProbeLedger")
    return {
        method.name
        for method in ledger.body
        if isinstance(method, ast.FunctionDef)
        for call in ast.walk(method)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "read"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "self"
    }


def test_no_scan_falls_back_to_read():
    # a scan refuses what its mask path does not take; it never loops on read
    assert _ledger_methods_calling_read(probes.__file__) <= {"read"}


def test_the_guard_sees_a_scan_that_calls_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class ProbeLedger:\n"
        "    def read(self, state, pos):\n"
        "        return 0\n\n"
        "    def read_run(self, state, off, width):\n"
        "        return [self.read(state, off + j) for j in range(width)]\n"
    )
    assert _ledger_methods_calling_read(module) == {"read_run"}
