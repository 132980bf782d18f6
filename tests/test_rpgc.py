import contextlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigray import BitState, ProbeLedger, UsageError, rpgc
from quasigray.rpgc import _compare_inc, _equal, rpgc_decrement, rpgc_increment


def fresh_ledger():
    ledger = ProbeLedger()
    ledger.open_step()
    return ledger


def state_of(bits):
    return BitState(len(bits), list(bits))


def apply_op(bits, op):
    state = state_of(bits)
    ledger = fresh_ledger()
    op(state, ledger)
    reads, writes = ledger.close_step()
    return list(state.bits), reads, writes


def successor(bits):
    """Pure oracle: one forward step, computed on a scratch copy."""
    out, _, _ = apply_op(bits, rpgc_increment)
    return out


def compare_pair(a_bits, b_bits, op):
    """Run ``op`` on A = a_bits and B = b_bits, laid out side by side."""
    state = state_of(list(a_bits) + list(b_bits))
    n = len(a_bits)
    ledger = fresh_ledger()
    result = op(state, ledger, 0, n, n)
    reads, _ = ledger.close_step()
    return result, reads


@pytest.mark.parametrize(
    "a,b,expected,reads",
    [
        ([0, 1], [0, 1], True, 4),  # equality forces the full scan
        ([1, 0], [0, 0], False, 2),  # first pair differs
        ([0, 0], [0, 1], False, 4),  # first pair equal, second differs
    ],
)
def test_compare_equal_read_counts(a, b, expected, reads):
    result, charged = compare_pair(a, b, _equal)
    assert result is expected
    assert charged == reads


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([1], [0], True),
        ([0, 1], [0, 0], True),  # successor of 00 is 01
        ([1, 1], [1, 0], False),
    ],
)
def test_compare_inc_examples(a, b, expected):
    result, _ = compare_pair(a, b, _compare_inc)
    assert result is expected


@pytest.mark.parametrize("n", range(1, 7))
def test_compare_inc_matches_successor_oracle_exhaustively(n):
    for a_val in range(1 << n):
        a_bits = [(a_val >> i) & 1 for i in range(n)]
        for b_val in range(1 << n):
            b_bits = [(b_val >> i) & 1 for i in range(n)]
            result, _ = compare_pair(a_bits, b_bits, _compare_inc)
            assert result == (a_bits == successor(b_bits)), (a_bits, b_bits)


@pytest.mark.parametrize(
    "before,after",
    [([0], [1]), ([0, 0], [0, 1]), ([1, 1], [1, 0])],
)
def test_increment_pow2_examples(before, after):
    out, _, writes = apply_op(before, rpgc_increment)
    assert out == after
    assert writes == 1


@pytest.mark.parametrize(
    "before,after",
    [([0, 1], [0, 0]), ([1, 0], [1, 1])],
)
def test_decrement_pow2_examples(before, after):
    out, _, writes = apply_op(before, rpgc_decrement)
    assert out == after
    assert writes == 1


@pytest.mark.parametrize(
    "before,after",
    [
        ([0, 0, 0], [0, 0, 1]),  # tail incremented
        ([0, 1, 0], [1, 1, 0]),  # tail at its maximum, direction bit flips
        ([1, 0, 0], [0, 0, 0]),  # tail at its minimum, cyclic wrap
    ],
)
def test_increment_direction_bit_cases(before, after):
    out, _, writes = apply_op(before, rpgc_increment)
    assert out == after
    assert writes == 1


@pytest.mark.parametrize(
    "before,after",
    [([1, 1, 0], [0, 1, 0]), ([0, 0, 1], [0, 0, 0])],
)
def test_decrement_direction_bit_cases(before, after):
    out, _, writes = apply_op(before, rpgc_decrement)
    assert out == after
    assert writes == 1


@pytest.mark.parametrize("n", [4, 5])
def test_decrement_inverts_increment_on_every_state(n):
    for value in range(1 << n):
        bits = [(value >> i) & 1 for i in range(n)]
        assert apply_op(successor(bits), rpgc_decrement)[0] == bits


@pytest.mark.parametrize("d", range(2, 15))
def test_state_preceding_the_wrap_is_one_then_zeros(cycle_report, d):
    # the direction-bit rule relies on the extreme states being all-zeros
    # and bit 0 alone; confirmed here by enumeration
    report = cycle_report("rpgc", dim=d)
    assert report.closed and report.distinct and report.length == 1 << d
    assert report.last_state == "0" * (d - 1) + "1"


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
def test_even_dimensions_hit_a_full_read_step(cycle_report, d):
    report = cycle_report("rpgc", dim=d)
    assert report.worst_reads == d


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=24), st.data())
def test_increment_and_decrement_are_mutual_inverses(dim, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
    bits = [(value >> i) & 1 for i in range(dim)]
    forward = apply_op(bits, rpgc_increment)[0]
    assert apply_op(forward, rpgc_decrement)[0] == bits
    backward = apply_op(bits, rpgc_decrement)[0]
    assert apply_op(backward, rpgc_increment)[0] == bits


class CallLog(ProbeLedger):
    """A ledger that logs the name of each call a step makes on it."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = []

    def read(self, *args):
        self.calls.append("read")
        return super().read(*args)

    def read_run(self, *args):
        self.calls.append("read_run")
        return super().read_run(*args)

    def read_zip(self, *args):
        self.calls.append("read_zip")
        return super().read_zip(*args)

    def read_table(self, *args):
        self.calls.append("read_table")
        return super().read_table(*args)

    def write(self, *args):
        self.calls.append("write")
        return super().write(*args)


def _large_d_starts(d):
    # all zeros; one bit set at positions around every power of two and on
    # a stride across the string; random states
    rng = random.Random(16)
    singles = {d - 1} | set(range(0, d, 257))
    singles |= {p for k in range(d.bit_length()) for p in ((1 << k) - 1, 1 << k, (1 << k) + 1)}
    singles = [1 << p for p in sorted(singles) if p < d]
    return [0] + singles + [rng.getrandbits(d) for _ in range(32)]


@pytest.mark.parametrize("step", [rpgc_increment, rpgc_decrement])
def test_a_step_at_large_d_makes_logarithmically_many_ledger_calls(step):
    # a step scans each comparison in one call, so at d = 2^16 it makes at
    # most 20 log2 d = 320 calls, not one call per bit read (above 10^5)
    d = 1 << 16
    worst = 0
    for value in _large_d_starts(d):
        state = BitState.from_int(value, d)
        ledger = CallLog()
        ledger.open_step()
        step(state, ledger)
        ledger.close_step()
        worst = max(worst, len(ledger.calls))
    assert 0 < worst <= 20 * 16


# Calls of _step and _compare_inc on at most _W0 bits are served from tables.
# The plain recursion is what they stand for: with _W0 = 0 no call is served.


@contextlib.contextmanager
def plain_calls():
    saved = rpgc._W0
    rpgc._W0 = 0
    try:
        yield
    finally:
        rpgc._W0 = saved


def _served_call(kind, n, off, off_b):
    """The call of ``kind`` on n bits from off (and off_b), as a function of
    a state and a ledger."""
    if kind == "compare":
        return lambda s, led: rpgc._compare_inc(s, led, off, off_b, n)
    return lambda s, led: rpgc._step(s, led, off, n, kind == "up")


@st.composite
def _served_cases(draw):
    """A served call, its runs out of range at times, over a state whose
    open step (or no open step) has made earlier reads and writes, often
    one of them a write inside the call's runs."""
    kind = draw(st.sampled_from(["up", "down", "compare"]))
    n = draw(st.integers(min_value=1, max_value=rpgc._W0))
    dim = draw(st.integers(min_value=1, max_value=2 * rpgc._W0 + 2))
    off = draw(st.integers(min_value=-1, max_value=dim))
    off_b = draw(st.integers(min_value=-1, max_value=dim)) if kind == "compare" else None
    bits = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    position = st.integers(min_value=0, max_value=dim - 1)
    reads = draw(st.lists(position, max_size=dim))
    inside = [p for start in (off, off_b) if start is not None for p in range(start, start + n)]
    inside = [p for p in inside if 0 <= p < dim]
    if inside:
        position = st.one_of(position, st.sampled_from(inside))
    writes = draw(st.lists(st.tuples(position, st.integers(0, 1)), max_size=dim))
    # one case in four has no open step
    is_open = draw(st.sampled_from([True, True, True, False]))
    runs_inside = all(0 <= start <= dim - n for start in (off, off_b) if start is not None)
    return (kind, n, off, off_b), (dim, bits, reads, writes, is_open), runs_inside


def _outcome(call, step):
    dim, bits, reads, writes, is_open = step
    state = BitState(dim, bits)
    ledger = ProbeLedger()
    ledger.open_step()
    for pos in reads:
        ledger.read(state, pos)
    for pos, val in writes:
        ledger.write(state, pos, val)
    if not is_open:
        ledger.close_step()
    try:
        result = call(state, ledger)
    except UsageError:
        result = UsageError
    return result, ledger.rmask, ledger.wmask, state.value


@settings(max_examples=1000)
@given(_served_cases())
def test_a_served_call_charges_like_the_plain_recursion(case):
    call, step, runs_inside = case
    served = _outcome(_served_call(*call), step)
    with plain_calls():
        plain = _outcome(_served_call(*call), step)
    if runs_inside:
        assert served == plain
        assert type(served[0]) is type(plain[0])
    else:
        # the scan refuses up front and charges nothing, where the recursion
        # may charge, or stop before it leaves the state
        assert served == _outcome(lambda s, led: UsageError, step)


@pytest.mark.parametrize("kind", ["up", "down", "compare"])
@pytest.mark.parametrize("n", range(1, rpgc._W0 + 1))
def test_a_plain_call_writes_once_and_last_or_never(kind, n):
    # the charge rule of a served call: a step reads nothing after its one
    # write, and a comparison writes nothing
    width = 2 * n if kind == "compare" else n
    with plain_calls():
        for value in range(1 << width):
            ledger = CallLog()
            ledger.open_step()
            _served_call(kind, n, 0, n)(BitState.from_int(value, width), ledger)
            if kind == "compare":
                assert "write" not in ledger.calls
            else:
                assert ledger.calls.index("write") == len(ledger.calls) - 1


FOOTPRINT = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from quasigray import BitState, ProbeLedger, enumerate_cycle, make_counter, rpgc

def tables():
    return rpgc._step_table.cache_info().currsize + rpgc._compare_table.cache_info().currsize

counter = make_counter("rpgc", dim=13)
make_counter("composite", layers=(6, 4, 2))
out = {"tables_built": tables()}
tracemalloc.start()
enumerate_cycle(counter)
out["first_peak"] = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()

# fill every entry of every table
full = []
for n in range(1, rpgc._W0 + 1):
    for value in range(1 << 2 * n):
        ledger = ProbeLedger()
        ledger.open_step()
        rpgc._compare_inc(BitState.from_int(value, 2 * n), ledger, 0, n, n)
        if value < 1 << n:
            for up in (True, False):
                rpgc._step(BitState.from_int(value, n), ledger, 0, n, up)
    full += [rpgc._step_table(n, True)[0], rpgc._step_table(n, False)[0], rpgc._compare_table(n)[0]]
out["unfilled"] = sum(entry == 0 for table in full for entry in table)
out["sizes"] = [sum(map(sys.getsizeof, full)), tables()]
for d in (16, 21, 31):
    enumerate_cycle(make_counter("rpgc", dim=d), cap=3000)
    out["sizes"].append(tables())
print(json.dumps(out))
"""


def test_tables_are_built_on_first_use_and_stay_small():
    src = str(Path(rpgc.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, src], capture_output=True, text=True, check=True
    )
    out = json.loads(run.stdout)
    # importing and building the benchmark's counters allocates no table
    assert out["tables_built"] == 0
    assert out["first_peak"] < 64 << 10
    assert out["unfilled"] == 0
    # every table there is: 2 step tables and 1 comparison table a width
    total, *counts = out["sizes"]
    assert total <= 32 << 10
    assert counts == [3 * rpgc._W0] * len(counts)
