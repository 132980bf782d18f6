import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasigray import BitState, ProbeLedger, UsageError, lazy
from quasigray.brgc import (
    brgc_next,
    brgc_prev,
    brgc_rank,
    brgc_unrank,
)


def step(text, fn):
    state = BitState.from_text(text)
    ledger = ProbeLedger()
    ledger.open_step()
    fn(state, ledger)
    reads, writes = ledger.close_step()
    return state.to_text(), reads, writes


@pytest.mark.parametrize(
    "before,after",
    [("000", "001"), ("011", "010"), ("100", "000")],
)
def test_next_matches_reference_transitions(before, after):
    text, reads, writes = step(before, brgc_next)
    assert text == after
    assert reads == 3 and writes == 1


@pytest.mark.parametrize(
    "before,after",
    [("001", "000"), ("000", "100"), ("010", "011")],
)
def test_prev_matches_reference_transitions(before, after):
    text, reads, writes = step(before, brgc_prev)
    assert text == after
    assert reads == 3 and writes == 1


@pytest.mark.parametrize(
    "text,rank", [("000", 0), ("110", 4), ("100", 7)]
)
def test_rank_values(text, rank):
    assert brgc_rank(BitState.from_text(text)) == rank


@pytest.mark.parametrize(
    "rank,text", [(0, "000"), (4, "110"), (7, "100")]
)
def test_unrank_values(rank, text):
    assert brgc_unrank(rank, 3).to_text() == text


def test_unrank_rejects_out_of_range():
    with pytest.raises(UsageError):
        brgc_unrank(8, 3)
    with pytest.raises(UsageError):
        brgc_unrank(-1, 3)


def test_tracked_rank_charges_every_bit():
    state = BitState.from_text("0110")
    ledger = ProbeLedger()
    ledger.open_step()
    assert lazy._rank("brgc", state, ledger, 0, 4) == brgc_rank(state)
    assert ledger.close_step() == (4, 0)


def test_every_step_reads_dim_and_writes_one():
    state = BitState.zeros(5)
    ledger = ProbeLedger()
    for _ in range(32):
        ledger.open_step()
        brgc_next(state, ledger)
        assert ledger.close_step() == (5, 1)
    assert state.to_text() == "00000"


@given(st.integers(min_value=1, max_value=16), st.data())
def test_rank_unrank_round_trip(dim, data):
    r = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
    assert brgc_rank(brgc_unrank(r, dim)) == r


@pytest.mark.parametrize("dim", range(1, 17))
def test_rank_unrank_round_trip_exhaustive(dim):
    for r in range(1 << dim):
        assert brgc_rank(brgc_unrank(r, dim)) == r


@given(st.integers(min_value=1, max_value=12), st.data())
def test_next_agrees_with_rank_oracle_and_prev_inverts(dim, data):
    r = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
    state = brgc_unrank(r, dim)
    ledger = ProbeLedger()
    ledger.open_step()
    brgc_next(state, ledger)
    ledger.close_step()
    assert state == brgc_unrank((r + 1) % (1 << dim), dim)
    ledger.open_step()
    brgc_prev(state, ledger)
    ledger.close_step()
    assert state == brgc_unrank(r, dim)


def test_consecutive_states_differ_in_one_bit_including_wrap(cycle_report):
    report = cycle_report("brgc", dim=6)
    assert report.closed and report.distinct
    assert report.length == 64
    assert report.max_hamming == 1
