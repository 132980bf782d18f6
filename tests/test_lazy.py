import tracemalloc
from fractions import Fraction

import pytest

from quasigray import BitState, ProbeLedger, UsageError, enumerate_cycle, lazy, rpgc
from quasigray.brgc import brgc_unrank
from quasigray.cli import run_cli
from quasigray.lazy import (
    LazyLayout,
    lazy_step,
    make_doublespin_counter,
    make_spin_counter,
    make_wine_counter,
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
    i_bits = [(i >> j) & 1 for j in range(layout.width)]
    k_bits = [(k >> j) & 1 for j in range(layout.g)]
    return BitState(layout.dim, list(b_bits) + i_bits + k_bits)


def fields(layout, state):
    b = list(state.bits[: layout.n])
    i = sum(state.bits[layout.i_offset + j] << j for j in range(layout.width))
    k = sum(state.bits[layout.k_offset + j] << j for j in range(layout.g))
    return b, i, k


def run(layout, state):
    ledger = ProbeLedger()
    ledger.open_step()
    lazy_step(layout, state, ledger)
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
    run(layout, state)
    assert fields(layout, state) == (b_after, i_after, 0)


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
    run(layout, state)
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
    run(layout, state)
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
    _, w = run(layout, state)
    assert fields(layout, state) == after
    assert w == writes


def test_wine_rejects_binary_encoding():
    with pytest.raises(UsageError):
        make_wine_counter(4, 1, encoding="binary")
    with pytest.raises(UsageError):
        LazyLayout(3, 1)


def test_phase_counters_reject_an_empty_phase_field():
    # at g = 0 the rule is the base lazy counter, which has its own name
    for make, args in [(make_doublespin_counter, (4, 0)), (make_wine_counter, (4, 0))]:
        with pytest.raises(UsageError, match="need g >= 1"):
            make(*args)


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
            assert s1 == s2
        assert s1.value == 0


def test_wine_with_partition_sub_codes_keeps_the_same_cycle_length():
    for n, g in [(4, 1), (4, 2), (8, 1)]:
        report = enumerate_cycle(make_wine_counter(n, g, encoding="rpgc"))
        assert report.closed and report.distinct
        assert report.length == wine_length(n, g)
        assert report.worst_writes <= 3
        w = n.bit_length() - 1
        assert report.worst_reads <= g + w + 1


@pytest.mark.parametrize("width", range(1, 13))
def test_max_pattern_is_the_state_of_highest_rank(width):
    last = (1 << width) - 1
    assert lazy._max_state("binary", width) == last
    assert lazy._max_state("brgc", width) == brgc_unrank(last, width).value
    state = BitState.zeros(width)
    ledger = ProbeLedger()
    for _ in range(last):
        ledger.open_step()
        rpgc._step(state, ledger, 0, width, True)
        ledger.close_step()
    assert lazy._max_state("rpgc", width) == state.value


def test_one_wine_step_with_a_wide_phase_field_stays_small(capsys):
    # the first step reads k, which is not at its maximal state, and never
    # ranks i: nothing of size 2^g is built for the 20-bit phase field
    lazy._max_state.cache_clear()
    lazy._rpgc_rank_table.cache_clear()
    argv = "cycle --counter wine --n 2 --g 20 --encoding rpgc --cap 1".split()
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "length=1 closed=false" in capsys.readouterr().out
    assert peak < 1 << 20


def test_every_step_writes_at_least_one_bit(cycle_report):
    for name, kw in [
        ("lazy", dict(n=4)),
        ("spin", dict(n=4)),
        ("doublespin", dict(n=4, g=2)),
        ("wine", dict(n=4, g=2)),
    ]:
        report = cycle_report(name, **kw)
        assert min(w for _, w, _ in report.replay()) >= 1


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_spin_average_reads_at_most_four(cycle_report, n):
    report = cycle_report("spin", n=n)
    assert report.avg_reads <= 4


class ReadCountingLedger(ProbeLedger):
    """A ledger that counts the read-side calls a step makes on it; writes
    are not counted, since a binary carry writes bit by bit."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def read(self, *args):
        self.calls += 1
        return super().read(*args)

    def read_run(self, *args):
        self.calls += 1
        return super().read_run(*args)

    def read_pairs(self, *args):
        self.calls += 1
        return super().read_pairs(*args)

    def read_zip(self, *args):
        self.calls += 1
        return super().read_zip(*args)


@pytest.mark.parametrize(
    "make, args",
    [
        (make_doublespin_counter, (2, 20)),
        (make_wine_counter, (2, 20, "brgc")),
        (make_wine_counter, (2, 20, "rpgc")),
    ],
    ids=["doublespin", "wine-brgc", "wine-rpgc"],
)
def test_a_step_scans_the_phase_field_in_one_call(make, args):
    # from k at its maximum, and from k at its maximum with any one bit
    # flipped, a step reads k in one call, not one call per bit. The
    # pointer starts at 0, so a spin step does not wrap it, and k's own
    # Gray step, whose calls grow with log g, is not taken.
    counter = make(*args)
    layout = LazyLayout(*args)
    top = lazy._max_state(layout.encoding, layout.g)
    worst = 0
    for k in [top] + [top ^ (1 << j) for j in range(layout.g)]:
        for b in range(1 << layout.n):
            state = BitState.from_int(b | k << layout.k_offset, layout.dim)
            ledger = ReadCountingLedger()
            ledger.open_step()
            counter.advance(state, ledger)
            ledger.close_step()
            worst = max(worst, ledger.calls)
    assert 0 < worst <= 12
