import csv
import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from quasigray import (
    BitState,
    CounterSpec,
    ProbeLedger,
    UsageError,
    check_bounds,
    collect_metrics,
    enumerate_cycle,
    make_counter,
    paper_bounds,
    verify_quasi_gray,
)
from quasigray.harness import (
    cycle_cap_from_env,
    decimal_str,
    flatten_report,
    make_binary_counter,
    standard_binary_step,
)
from quasigray.probes import read_field
from quasigray.reports import CSV_COLUMNS, csv_text, json_text

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_enumerate_small_cycles(cycle_report):
    report = cycle_report("rpgc", dim=3)
    assert (report.length, report.closed, report.distinct) == (8, True, True)
    assert report.max_hamming == 1
    report = cycle_report("lazy", n=2)
    assert report.length == 6 and report.closed and report.distinct


def test_enumerate_brgc_sequence_in_figure_order():
    counter = make_counter("brgc", dim=3)
    state = counter.fresh_state()
    ledger = ProbeLedger()
    seen = [state.to_text()]
    for _ in range(7):
        ledger.open_step()
        counter.advance(state, ledger)
        ledger.close_step()
        seen.append(state.to_text())
    assert seen == ["000", "001", "011", "010", "110", "111", "101", "100"]


def test_cap_exceeded_reports_unclosed():
    report = enumerate_cycle(make_counter("rpgc", dim=4), cap=5)
    assert not report.closed
    assert report.length == 5
    assert report.last_state is None


def test_report_invariants_hold(cycle_report):
    for name, kw in [("rpgc", dict(dim=6)), ("wine", dict(n=4, g=1))]:
        report = cycle_report(name, **kw)
        assert report.length >= 1
        assert Fraction(0) < report.space_efficiency <= 1
        assert report.avg_reads <= report.worst_reads
        assert report.avg_writes <= report.worst_writes
        assert report.max_hamming >= 1


def test_verify_quasi_gray_passes_gray_codes(cycle_report):
    assert verify_quasi_gray(cycle_report("brgc", dim=3), 1).passed
    assert verify_quasi_gray(cycle_report("wine", n=4, g=2), 3).passed


def test_verify_quasi_gray_finds_the_binary_carry():
    report = enumerate_cycle(make_binary_counter(2))
    check = verify_quasi_gray(report, 1)
    assert not check.passed
    # the first two-bit change is the carry 01 -> 10, at the second step
    assert check.violation_step == 2
    assert check.violation_kind == "hamming"
    assert check.violation_value == 2


def test_verify_quasi_gray_rejects_unclosed_reports():
    report = enumerate_cycle(make_counter("rpgc", dim=4), cap=5)
    with pytest.raises(UsageError):
        verify_quasi_gray(report, 1)
    with pytest.raises(UsageError):
        verify_quasi_gray(enumerate_cycle(make_counter("rpgc", dim=3)), 0)


def test_collect_metrics_values(cycle_report):
    metrics = collect_metrics(cycle_report("brgc", dim=3))
    assert metrics["avg_reads"] == {"num": 3, "den": 1, "decimal": "3"}
    assert metrics["worst_writes"] == 1
    metrics = collect_metrics(cycle_report("binary", dim=3))
    assert Fraction(metrics["avg_reads"]["num"], metrics["avg_reads"]["den"]) == Fraction(7, 4)
    assert metrics["avg_reads"]["decimal"] == "1.75"
    metrics = collect_metrics(cycle_report("rpgc", dim=4))
    assert Fraction(metrics["avg_reads"]["num"], metrics["avg_reads"]["den"]) <= 8


def test_collect_metrics_needs_a_closed_report():
    with pytest.raises(UsageError):
        collect_metrics(enumerate_cycle(make_counter("rpgc", dim=4), cap=5))


def _rho_step(state, ledger):
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 2 on the low three bits: a tail that
    # runs into a loop missing the initial state; higher bits stay put
    value = read_field(state, ledger, 0, 3)
    after = value + 1 if value < 5 else 2
    for p in range(3):
        ledger.write(state, p, (after >> p) & 1)


@pytest.mark.parametrize("dim", [3, 4])
def test_a_run_that_never_returns_is_stopped(dim):
    # at dim 4 each step reads 3 of the 4 bits, so after each of the six
    # states has been stepped once, the loop is walked through the tree
    counter = CounterSpec("rho", dim, {"dim": dim}, BitState.zeros(dim), _rho_step)
    report = enumerate_cycle(counter)
    assert (report.closed, report.distinct, report.last_state) == (False, False, None)
    # the state saved at step 4 (value 4) recurs at step 8
    assert report.length == len(report.step_reads) == 8
    assert report.interpreted_steps == (8 if dim == 3 else 6)
    with pytest.raises(UsageError):
        verify_quasi_gray(report, 3)
    # state 2 recurs at step 6, but a cap of 7 stops the run before the
    # saved state comes round: an unclosed row whose distinct is unchecked
    capped = enumerate_cycle(counter, cap=7)
    assert (capped.length, capped.closed, capped.distinct) == (7, False, True)


def test_standard_binary_step_carries():
    state = BitState.from_text("001")
    ledger = ProbeLedger()
    ledger.open_step()
    standard_binary_step(state, ledger)
    assert (state.to_text(), ledger.close_step()) == ("010", (2, 2))
    ledger.open_step()
    state = BitState.from_text("011")
    standard_binary_step(state, ledger)
    assert (state.to_text(), ledger.close_step()) == ("100", (3, 3))


def test_binary_average_matches_the_closed_form(cycle_report):
    for d in (2, 3, 6):
        report = cycle_report("binary", dim=d)
        expected = Fraction(2) - Fraction(1, 1 << (d - 1))
        assert report.avg_reads == expected
        assert report.avg_writes == expected


def test_check_bounds_all_pass_for_partition_code(cycle_report):
    report = cycle_report("rpgc", dim=8)
    results = check_bounds(report, paper_bounds(make_counter("rpgc", dim=8)))
    assert all(r.passed for r in results)
    kinds = [r.bound.kind for r in results]
    assert "length_exact" in kinds and "avg_reads_le" in kinds


def test_check_bounds_lazy_length_exact(cycle_report):
    report = cycle_report("lazy", n=4)
    results = check_bounds(report, paper_bounds(make_counter("lazy", n=4)))
    length = next(r for r in results if r.bound.kind == "length_exact")
    assert length.passed is True and report.length == 30


def test_check_bounds_reports_disputed_length_deltas(cycle_report):
    report = cycle_report("spin", n=2)
    results = check_bounds(report, paper_bounds(make_counter("spin", n=2)))
    deltas = {r.bound.formula: r.delta for r in results if r.passed is None}
    # enumerated length 14 versus the two claimed closed forms
    assert deltas == {"(n+1)*(2^n-1)": 14 - 9, "(n+1)*2^n-2": 14 - 10}


def test_check_bounds_requires_closed_report():
    unclosed = enumerate_cycle(make_counter("rpgc", dim=4), cap=5)
    with pytest.raises(UsageError):
        check_bounds(unclosed, [])


def test_enumeration_is_deterministic():
    a = enumerate_cycle(make_counter("wine", n=4, g=1))
    b = enumerate_cycle(make_counter("wine", n=4, g=1))
    assert json_text(collect_metrics(a)) == json_text(collect_metrics(b))
    assert a.step_reads == b.step_reads


def test_csv_schema_and_rendering(cycle_report):
    text = csv_text([flatten_report(cycle_report("binary", dim=3))])
    header, row = text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    cells = row.split(",")
    assert cells[0] == "binary"
    assert cells[CSV_COLUMNS.index("closed")] == "true"
    assert cells[CSV_COLUMNS.index("avg_reads")] == "1.75"


def _csv_writer_text(lines):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(lines)
    return buffer.getvalue()


def test_csv_text_matches_csv_writer():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = [entry["csv"] for entry in golden["configs"].values()]
    texts.append(golden["table1"]["csv"])
    assert any('"inner=rpgc;layers=' in text for text in texts)
    for text in texts:
        header, *lines = csv.reader(io.StringIO(text))
        rows = [dict(zip(header, line)) for line in lines]
        assert csv_text(rows, header) == text == _csv_writer_text([header, *lines])
    odd = [{"counter": 'say "hi"', "params": "a\nb"}, {}]
    cells = [[str(row.get(col, "")) for col in CSV_COLUMNS] for row in odd]
    assert csv_text(odd) == _csv_writer_text([CSV_COLUMNS, *cells])
    # one empty field alone on a line would need quoting; no line is one field
    with pytest.raises(UsageError):
        csv_text([{}], ["counter"])


def test_metrics_row_tolerates_unclosed_reports():
    row = flatten_report(enumerate_cycle(make_counter("rpgc", dim=4), cap=5))
    assert row["closed"] is False
    assert row["length"] == 5


def test_decimal_rendering_is_ten_significant_digits():
    assert decimal_str(Fraction(1, 3)) == "0.3333333333"
    assert decimal_str(Fraction(7, 4)) == "1.75"
    assert decimal_str(Fraction(262142, 262144)) == "0.9999923706"


def test_every_counter_writes_each_step_within_dim(cycle_report):
    # step rules must change at least one bit, and probe charges can never
    # exceed the dimension
    for name, kw in [
        ("binary", dict(dim=4)),
        ("brgc", dict(dim=5)),
        ("rpgc", dict(dim=7)),
        ("composite", dict(layers=(3, 2))),
    ]:
        report = cycle_report(name, **kw)
        assert min(report.step_writes) >= 1
        assert report.worst_reads <= report.dim
        assert report.worst_writes <= report.dim


def test_cycle_cap_env_override(monkeypatch):
    monkeypatch.setenv("QUASIGRAY_CYCLE_CAP", "12")
    assert cycle_cap_from_env() == 12
    monkeypatch.setenv("QUASIGRAY_CYCLE_CAP", "zero")
    with pytest.raises(UsageError):
        cycle_cap_from_env()
    monkeypatch.setenv("QUASIGRAY_CYCLE_CAP", "0")
    with pytest.raises(UsageError):
        cycle_cap_from_env()
    monkeypatch.delenv("QUASIGRAY_CYCLE_CAP")
    assert cycle_cap_from_env(123) == 123


# the configurations of the benchmark's verify-sweep grid
SWEEP_GRID = (
    [(c, dict(dim=d)) for c in ("binary", "brgc", "rpgc") for d in range(2, 13)]
    + [(c, dict(n=n)) for c in ("lazy", "spin") for n in (2, 4, 8)]
    + [
        (name, dict(n=n, g=g, **enc))
        for n in (2, 4, 8)
        for g in ((1, 2, 3) if n < 8 else (1,))
        for name, enc in (
            ("doublespin", {}),
            ("wine", dict(encoding="brgc")),
            ("wine", dict(encoding="rpgc")),
        )
    ]
    + [
        ("composite", dict(layers=(6, 3))),
        ("composite", dict(layers=(7, 3, 2))),
        ("composite", dict(layers=(4, 4), inner="brgc")),
        ("composite", dict(layers=(2, 3, 3, 4))),
    ]
)
SPACE_OPTIMAL = ("binary", "brgc", "rpgc", "composite")


def _grid_id(config):
    name, kw = config
    return name + "-" + "-".join(f"{k}={v}" for k, v in sorted(kw.items()))


def _start_states(name, counter):
    """Three start states for a space-optimal counter, the initial one else."""
    if name not in SPACE_OPTIMAL:
        return [counter]
    rng = random.Random(counter.dim)
    values = [0] + rng.sample(range(1, 1 << counter.dim), 2)
    return [replace(counter, initial=BitState.from_int(v, counter.dim)) for v in values]


def reference_cycle(counter, cap):
    """open_step -> advance -> close_step with every step interpreted, and
    the state compared and stored after each step."""
    state = counter.fresh_state()
    ledger = ProbeLedger()
    start = prev = state.to_int()
    seen = {start}
    reads, writes, hamming = [], [], []
    closed, distinct = False, True
    while len(reads) < cap:
        ledger.open_step()
        counter.advance(state, ledger)
        r, w = ledger.close_step()
        cur = state.to_int()
        reads.append(r)
        writes.append(w)
        hamming.append(bin(prev ^ cur).count("1"))
        if cur == start:
            closed = True
            break
        if cur in seen:
            distinct = False
            break
        seen.add(cur)
        prev = cur
    return dict(
        length=len(reads),
        closed=closed,
        distinct=distinct,
        total_reads=ledger.total_reads,
        total_writes=ledger.total_writes,
        worst_reads=ledger.max_reads,
        worst_writes=ledger.max_writes,
        max_hamming=max(hamming),
        last_state=BitState.from_int(prev, counter.dim).to_text() if closed else None,
        step_reads=reads,
        step_writes=writes,
        step_hamming=hamming,
    )


_SCALARS = (
    "length",
    "closed",
    "distinct",
    "total_reads",
    "total_writes",
    "worst_reads",
    "worst_writes",
    "max_hamming",
    "last_state",
)


def _observed(report):
    fields = {key: getattr(report, key) for key in _SCALARS}
    for key in ("step_reads", "step_writes", "step_hamming"):
        fields[key] = getattr(report, key).tolist()
    return fields


@pytest.mark.parametrize("config", SWEEP_GRID, ids=_grid_id)
def test_tree_walk_matches_interpreted_steps(config):
    name, kw = config
    for counter in _start_states(name, make_counter(name, **kw)):
        full = reference_cycle(counter, 1 << 26)
        report = enumerate_cycle(counter)
        assert _observed(report) == full
        assert report.avg_reads == Fraction(full["total_reads"], full["length"])
        assert report.avg_writes == Fraction(full["total_writes"], full["length"])
        assert report.interpreted_steps <= report.length
        if name == "brgc":
            # every brgc step reads all dim bits, so no path is grafted
            assert report.interpreted_steps == report.length
        cap = max(1, full["length"] * 2 // 3)
        assert _observed(enumerate_cycle(counter, cap)) == reference_cycle(counter, cap)


def test_tree_interprets_few_steps_where_paths_repeat(cycle_report):
    lazy = cycle_report("lazy", n=16)
    assert lazy.length == 131070
    assert lazy.interpreted_steps <= 64
    rpgc = enumerate_cycle(make_counter("rpgc", dim=13))
    assert rpgc.interpreted_steps < rpgc.length // 3


def _charged_step(counter, value):
    """Run one step from ``value``: its charged reads with the values read,
    and its writes with the values left in place."""
    state = BitState.from_int(value, counter.dim)
    ledger = ProbeLedger()
    ledger.open_step()
    counter.advance(state, ledger)
    reads = {p: (value >> p) & 1 for p in ledger.read_set}
    writes = {p: state.bits[p] for p in ledger.write_set}
    ledger.close_step()
    return reads, writes, state.to_int()


@pytest.mark.parametrize("config", SWEEP_GRID, ids=_grid_id)
def test_steps_see_only_the_bits_they_charge(config):
    # the decision tree is sound only if a step's reads and writes are a
    # function of the bits it charge-read
    name, kw = config
    counter = make_counter(name, **kw)
    report = enumerate_cycle(counter)
    stride = max(1, report.length // 12)
    value = counter.initial.to_int()
    for step in range(report.length):
        reads, writes, after = _charged_step(counter, value)
        if step % stride == 0:
            for p in range(counter.dim):
                if p not in reads:
                    flipped = _charged_step(counter, value ^ (1 << p))
                    assert flipped[:2] == (reads, writes), (step, p)
        value = after
