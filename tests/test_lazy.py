from fractions import Fraction

import pytest

from quasigray import BitState, ProbeLedger, UsageError, enumerate_cycle
from quasigray.lazy import (
    LazyLayout,
    double_spin_increment,
    lazy_increment,
    make_doublespin_counter,
    make_spin_counter,
    make_wine_counter,
    spin_increment,
    wine_increment,
)

#: enumerated lengths match these closed forms, derived by counting the
#: spin phases per payload transition and, for wine, the pointer positions
#: that are not reset after a set step
def spin_length(n):
    return (n + 2) * (1 << n) - 2


def doublespin_length(n, g):
    return n * (1 << n) * ((1 << g) - 1) + (1 << (n + 1)) - 2


def wine_length(n, g):
    return n * (1 << n) * ((1 << g) - 1) + (1 << n) + n - 1


def build_state(layout, b_bits, i=0, k=0):
    bits = list(b_bits) + [0] * (layout.width + layout.g)
    state = BitState(layout.dim, bits)
    for j in range(layout.width):
        state.bits[layout.i_offset + j] = (i >> j) & 1
    for j in range(layout.g):
        state.bits[layout.k_offset + j] = (k >> j) & 1
    return state


def fields(layout, state):
    b = state.bits[: layout.n]
    i = sum(state.bits[layout.i_offset + j] << j for j in range(layout.width))
    k = sum(state.bits[layout.k_offset + j] << j for j in range(layout.g))
    return b, i, k


def run(layout, state, op):
    ledger = ProbeLedger()
    ledger.open_step()
    op(layout, state, ledger)
    return ledger.close_step()


@pytest.mark.parametrize(
    "b,i,b_after,i_after",
    [
        ([0, 0, 0, 0], 0, [1, 0, 0, 0], 0),
        ([1, 0, 0, 0], 0, [0, 0, 0, 0], 1),
        ([0, 0, 0, 0], 1, [0, 1, 0, 0], 0),
    ],
)
def test_lazy_increment_transitions(b, i, b_after, i_after):
    layout = LazyLayout(4, 0)
    state = build_state(layout, b, i=i)
    run(layout, state, lazy_increment)
    assert fields(layout, state) == (b_after, i_after, 0)


def test_lazy_increment_rejects_wrong_layout():
    with pytest.raises(UsageError):
        lazy_increment(LazyLayout(4, 1), BitState.zeros(7), ProbeLedger())


@pytest.mark.parametrize(
    "b,i,k,after",
    [
        ([0, 1, 1, 0], 3, 0, ([0, 1, 1, 0], 0, 1)),  # i rolled over
        ([0, 0, 0, 0], 0, 1, ([1, 0, 0, 0], 0, 0)),  # real increment
        ([0, 1, 1, 0], 1, 0, ([0, 1, 1, 0], 2, 0)),  # plain spin
    ],
)
def test_spin_increment_transitions(b, i, k, after):
    layout = LazyLayout(4, 1)
    state = build_state(layout, b, i=i, k=k)
    run(layout, state, spin_increment)
    assert fields(layout, state) == after


@pytest.mark.parametrize(
    "b,i,k,after",
    [
        ([0, 1, 1, 0], 3, 1, ([0, 1, 1, 0], 0, 2)),  # k advances when i wraps
        ([0, 0, 0, 0], 0, 3, ([1, 0, 0, 0], 0, 0)),  # k at maximum: real step
        ([0, 1, 1, 0], 2, 0, ([0, 1, 1, 0], 3, 0)),
    ],
)
def test_double_spin_transitions(b, i, k, after):
    layout = LazyLayout(4, 2)
    state = build_state(layout, b, i=i, k=k)
    run(layout, state, double_spin_increment)
    assert fields(layout, state) == after


@pytest.mark.parametrize(
    "b,i,k,after,writes",
    [
        ([0, 0], 0, 0, ([0, 0], 1, 0), 1),  # k below max: spin i
        ([0, 0], 0, 1, ([1, 0], 0, 0), 2),  # set b[0], reset k
        ([1, 0], 0, 1, ([0, 0], 1, 1), 2),  # clear b[0], i moves on
    ],
)
def test_wine_transitions_small(b, i, k, after, writes):
    layout = LazyLayout(2, 1, encoding="brgc")
    state = build_state(layout, b, i=i, k=k)
    _, w = run(layout, state, wine_increment)
    assert fields(layout, state) == after
    assert w == writes


def test_wine_rejects_binary_encoding():
    with pytest.raises(UsageError):
        make_wine_counter(4, 1, encoding="binary")
    with pytest.raises(UsageError):
        LazyLayout(3, 1)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_spin_length_matches_derived_form(cycle_report, n):
    report = cycle_report("spin", n=n)
    assert report.closed and report.distinct
    assert report.length == spin_length(n)


@pytest.mark.parametrize("n,g", [(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 3)])
def test_doublespin_length_matches_derived_form(cycle_report, n, g):
    report = cycle_report("doublespin", n=n, g=g)
    assert report.closed and report.distinct
    assert report.length == doublespin_length(n, g)


@pytest.mark.parametrize("n,g", [(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 3)])
def test_wine_length_matches_derived_form(cycle_report, n, g):
    report = cycle_report("wine", n=n, g=g)
    assert report.closed and report.distinct
    assert report.length == wine_length(n, g)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_lazy_average_reads_is_pointer_width_plus_one(cycle_report, n):
    # the pointer is read in full on every step (the payload probe needs
    # its exact value), so the measured average is width + 1, not a constant
    report = cycle_report("lazy", n=n)
    width = n.bit_length() - 1
    assert report.avg_reads == Fraction(width + 1)
    assert report.avg_writes <= 3


def test_pointer_and_phase_fields_stay_in_range():
    for make, kw in [
        (make_spin_counter, dict(n=4)),
        (make_doublespin_counter, dict(n=4, g=2)),
        (make_wine_counter, dict(n=4, g=2)),
    ]:
        counter = make(**kw)
        layout = LazyLayout(kw["n"], kw.get("g", 1), kw.get("encoding", "binary"))
        if counter.name == "wine":
            layout = LazyLayout(kw["n"], kw["g"], "brgc")
        state = counter.fresh_state()
        ledger = ProbeLedger()
        for _ in range(2000):
            ledger.open_step()
            counter.advance(state, ledger)
            ledger.close_step()
            _, i, k = fields(layout, state)
            assert i < kw["n"]
            assert k < (1 << layout.g)


def test_doublespin_g1_walks_in_lockstep_with_spin():
    for n in (2, 4):
        spin = make_spin_counter(n)
        ds = make_doublespin_counter(n, 1)
        s1, s2 = spin.fresh_state(), ds.fresh_state()
        l1, l2 = ProbeLedger(), ProbeLedger()
        for _ in range(spin_length(n)):
            l1.open_step()
            spin.advance(s1, l1)
            l2.open_step()
            ds.advance(s2, l2)
            assert l1.close_step() == l2.close_step()
            assert s1.bits == s2.bits
        assert s1.to_int() == 0


def test_wine_with_partition_sub_codes_keeps_the_same_cycle_length():
    for n, g in [(4, 1), (4, 2), (8, 1)]:
        report = enumerate_cycle(make_wine_counter(n, g, encoding="rpgc"))
        assert report.closed and report.distinct
        assert report.length == wine_length(n, g)
        assert report.worst_writes <= 3
        w = n.bit_length() - 1
        assert report.worst_reads <= g + w + 1


def test_every_step_writes_at_least_one_bit(cycle_report):
    for name, kw in [
        ("lazy", dict(n=4)),
        ("spin", dict(n=4)),
        ("doublespin", dict(n=4, g=2)),
        ("wine", dict(n=4, g=2)),
    ]:
        report = cycle_report(name, **kw)
        assert min(report.step_writes) >= 1


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_spin_average_reads_at_most_four(cycle_report, n):
    report = cycle_report("spin", n=n)
    assert report.avg_reads <= 4
