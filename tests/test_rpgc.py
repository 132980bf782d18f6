import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigray import BitState, ProbeLedger
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
    return state.bits, reads, writes


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
