import csv
import hashlib
import io
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _K,
    DECIMAL_DIGITS,
    DEFAULT_CYCLE_CAP,
    decimal_str,
    make_binary_counter,
    standard_binary_step,
)
from quasigray.bounds import BoundSpec, LogLinearBound, table_bounds
from quasigray.composite import LayerPlan, auto_plan, logstar_plan
from quasigray.lazy import LazyLayout
from quasigray.logmath import compare_with_log2, iterated_log_at_least, log_star
from quasigray.probes import increment_field
from quasigray.reports import CSV_COLUMNS, csv_text, json_chunks, json_rows_chunks, json_text

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


def _write_out_of_range_bit():
    ledger = ProbeLedger()
    ledger.open_step()
    ledger.write(BitState.zeros(3), 0, 2)


# each refusal of a precondition: the call, and the start of its message
REFUSALS = {
    "zero-cap": (lambda: enumerate_cycle(make_counter("rpgc", dim=3), 0), "cap must"),
    "empty-plan": (lambda: LayerPlan([]), "a plan needs"),
    "auto-plan-dim-0": (lambda: auto_plan(0, 1), "dimension must"),
    "logstar-plan-dim-0": (lambda: logstar_plan(0), "dimension must"),
    "unknown-counter": (lambda: make_counter("nope"), "unknown counter"),
    "negative-g": (lambda: LazyLayout(4, -1), "g must"),
    "unknown-encoding": (lambda: LazyLayout(4, 1, "gray"), "encoding must"),
    "log-star-of-0": (lambda: log_star(0), "log_star requires"),
    "iterated-log-of-0": (lambda: iterated_log_at_least(0, 1, 1), "iterated log requires"),
    "negative-iteration": (lambda: iterated_log_at_least(4, -1, 1), "k must"),
    "log2-of-0": (lambda: compare_with_log2(Fraction(1), 0), "log2 argument must"),
    "short-bits": (lambda: BitState(3, [0, 1]), "expected 3 bits"),
    "write-of-2": (_write_out_of_range_bit, "bit values must"),
    "zero-coefficient": (
        lambda: LogLinearBound(Fraction(0), 3).admits(Fraction(1)),
        "coefficient must",
    ),
    "unknown-bound-kind": (lambda: BoundSpec("nope", "1", 1, "nowhere"), "unknown bound kind"),
    "composite-without-inner-average": (
        lambda: table_bounds(make_counter("composite", layers=[3, 2], inner="rpgc")),
        "the composite average bound",
    ),
    "uncatalogued-counter": (
        lambda: paper_bounds(replace(make_counter("wine", n=4, g=1), name="nope")),
        "no bound catalog",
    ),
    "uncatalogued-counter-without-n": (
        lambda: paper_bounds(CounterSpec("nope", 2, {}, BitState.zeros(2), None)),
        "no bound catalog",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_broken_precondition_is_a_usage_error(call, message):
    with pytest.raises(UsageError, match=f"^{message}"):
        call()


def test_collect_metrics_values(cycle_report):
    metrics = collect_metrics(cycle_report("brgc", dim=3))
    assert metrics["avg_reads"] == {"num": 3, "den": 1, "decimal": "3"}
    assert metrics["worst_writes"] == 1
    metrics = collect_metrics(cycle_report("binary", dim=3))
    assert Fraction(metrics["avg_reads"]["num"], metrics["avg_reads"]["den"]) == Fraction(7, 4)
    assert metrics["avg_reads"]["decimal"] == "1.75"
    metrics = collect_metrics(cycle_report("rpgc", dim=4))
    assert Fraction(metrics["avg_reads"]["num"], metrics["avg_reads"]["den"]) <= 8


def _rho_step(state, ledger):
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 2 on the low three bits: a tail that
    # runs into a loop missing the initial state; higher bits stay put
    value = ledger.read_run(state, 0, 3)
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
    assert report.length == len(list(report.replay())) == 8
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
    assert list(a.replay()) == list(b.replay())


def test_csv_schema_and_rendering(cycle_report):
    text = csv_text([collect_metrics(cycle_report("binary", dim=3))])
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


def test_json_chunks_are_json_dumps_in_pieces():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    text = golden["table1"]["json"]
    rows = json.loads(text)
    pieces = list(json_chunks(rows))
    assert "".join(pieces) == json_text(rows) == json.dumps(rows, indent=2) + "\n" == text
    # a table is written a piece at a time, never as one string
    assert len(pieces) > 10
    assert max(map(len, pieces)) < len(text) // 10
    assert json_text("a\nb") == '"a\\nb"\n'
    assert json_text([]) == "[]\n"


def test_json_rows_chunks_take_each_row_out_once_written():
    text = json.loads(GOLDEN.read_text(encoding="utf-8"))["table1"]["json"]
    rows = json.loads(text)
    total, left, pieces = len(rows), [], []
    for piece in json_rows_chunks(rows):
        pieces.append(piece)
        left.append(len(rows))
    assert "".join(pieces) == text
    # the list empties as the text is written, never ahead of it
    assert left == sorted(left, reverse=True) and left[-1] == 0
    assert 0 < left[0] < total and len(set(left)) > 10
    assert "".join(json_rows_chunks([])) == "[]\n"
    assert "".join(json_rows_chunks([{"a": [1, {"b": "x\ny"}]}, {}])) == json_text(
        [{"a": [1, {"b": "x\ny"}]}, {}]
    )


def test_metrics_row_tolerates_unclosed_reports():
    # a run the cap cut short flattens like a closed one; only verification
    # and the bound checks need a closed report
    row = collect_metrics(enumerate_cycle(make_counter("rpgc", dim=4), cap=5))
    assert list(row) == list(CSV_COLUMNS)
    assert row["closed"] is False
    assert row["length"] == 5
    assert row["avg_reads"]["den"] == 5


def test_decimal_rendering_is_ten_significant_digits():
    assert decimal_str(Fraction(1, 3)) == "0.3333333333"
    assert decimal_str(Fraction(7, 4)) == "1.75"
    assert decimal_str(Fraction(262142, 262144)) == "0.9999923706"
    # the space efficiency of a state at the 2^20-bit bound, without
    # building a Decimal of its 315,653-digit denominator
    assert decimal_str(Fraction(1, 1 << (1 << 20))) == "1.483428591E-315653"


def test_decimal_rendering_matches_decimal_division():
    rng = random.Random(11)
    values = [Fraction(a, b) for a in range(-40, 41) for b in range(1, 50)]
    for k in range(60):
        for base in (2, 3, 5, 10):
            values += [Fraction(1, base**k), Fraction(base**k + 1, base ** (k + 1))]
        # exact ties at the tenth digit and exact quotients with trailing zeros
        values += [Fraction(12345678905, 10**k), Fraction(99999999995, 10**k)]
        values += [Fraction(10**k, 4), Fraction(-(10**k), 8)]
    for _ in range(3000):
        values.append(Fraction(rng.getrandbits(150) - (1 << 149), rng.getrandbits(150) + 1))
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        for v in values:
            assert decimal_str(v) == str(Decimal(v.numerator) / Decimal(v.denominator)), v


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
        assert min(w for _, w, _ in report.replay()) >= 1
        assert report.worst_reads <= report.dim
        assert report.worst_writes <= report.dim


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


@pytest.mark.parametrize(
    "config", SWEEP_GRID + [("composite", dict(layers=(6, 4, 2)))], ids=_grid_id
)
def test_write_claim_is_the_catalogued_write_bound(config):
    counter = make_counter(config[0], **config[1])
    bounds = {b.kind: b.value for b in paper_bounds(counter)}
    assert counter.claimed_c == bounds["worst_writes_le"]
    assert counter.claimed_c == bounds.get("hamming_le", counter.claimed_c)


# SHA-256 of each catalog entry's kind, formula, value, source and disputed
# flag, in catalog order, for configurations that the golden file's verify
# rows never reach. Ints are pinned in hex: Python refuses the decimal form
# of 2^(2^16). Taken before the catalog stated each family's claims once.
CATALOG_PINS = [
    ("binary", dict(dim=1), "27825bd98a08572ae7b611c1c6df9a5ad0aa097697e0cc1c74410cd1fde2028f"),
    ("brgc", dict(dim=1), "cf0b848746ce4f5b43f6c1e974eb6807d7391b9747b9785164bb682998a857c5"),
    ("rpgc", dict(dim=1), "56772f74c75afaf661d084efa528d0a287f9d29eb2f5fbe8a480b37e4233709c"),
    ("rpgc", dict(dim=16), "a4b605a23a34bce75bed0ffc6e92a810d0dbe42ee7eb8ddcf02de175650562d1"),
    ("rpgc", dict(dim=64), "7cec52aa76ae7be3b78379176598f5d2cd0bd85d1c3c1fc27069ff276626cad1"),
    ("rpgc", dict(dim=1000), "fd9b5fc1323320e982d1a5b7b329c3dd04f14b8aa9edb71a81f2f0486236d17a"),
    (
        "rpgc",
        dict(dim=1 << 16),
        "9dce826f9f7f47e70db5dde91c42597c3ff13f980fd59de99b7ed5307be159c2",
    ),
    (
        "composite",
        dict(dim=7, c=1),
        "79ae10d2ea4b571e72411fe6e92875a62b606efd4dc800df841dc2364d0356de",
    ),
    (
        "composite",
        dict(layers=(5,)),
        "a075cdc4d4a7e3d3a1254d58606c3c9d0e195a11399ae75aa19ad9beb91aef46",
    ),
    ("lazy", dict(n=64), "e963d9fa7ede711f4d34574bfdf57683a7a689ad464a19a74f987be93cf14c22"),
    ("spin", dict(n=64), "d969820fcbff702811ec4d5d4aa6e5c97a405b4fa0ce7d44c827b739259769dd"),
    (
        "doublespin",
        dict(n=8, g=5),
        "d85278624a1e7315905b8d7a398e75619abf208f45f3e7b7ca7d50f9006caf5b",
    ),
    (
        "wine",
        dict(n=8, g=5, encoding="brgc"),
        "5347705d782a2df08889c5b7765d2007852b48ed94860902aac2a42cdf782909",
    ),
    (
        "wine",
        dict(n=8, g=5, encoding="rpgc"),
        "5347705d782a2df08889c5b7765d2007852b48ed94860902aac2a42cdf782909",
    ),
]


def catalog_digest(counter):
    digest = hashlib.sha256()
    for b in paper_bounds(counter):
        value = hex(b.value) if isinstance(b.value, int) else repr(b.value)
        digest.update(f"{b.kind}|{b.formula}|{value}|{b.source}|{b.disputed}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, kw, expected", CATALOG_PINS, ids=[_grid_id(pin[:2]) for pin in CATALOG_PINS]
)
def test_catalog_entries_match_the_pinned_digest(name, kw, expected):
    assert catalog_digest(make_counter(name, **kw)) == expected


def _start_states(name, counter):
    """Three start states for a space-optimal counter, the initial one else."""
    if name not in SPACE_OPTIMAL:
        return [counter]
    rng = random.Random(counter.dim)
    values = [0] + rng.sample(range(1, 1 << counter.dim), 2)
    return [replace(counter, initial=BitState.from_int(v, counter.dim)) for v in values]


def reference_cycle(counter, cap):
    """open_step -> advance -> close_step with every step interpreted, and
    Brent's rule applied after each step as ``enumerate_cycle`` applies it:
    the state is compared with the start state, then with the one saved at
    the last power-of-two step."""
    state = counter.fresh_state()
    ledger = ProbeLedger()
    start = prev = saved = state.value
    next_save = 1
    reads, writes, hamming = [], [], []
    closed, distinct = False, True
    while len(reads) < cap:
        ledger.open_step()
        counter.advance(state, ledger)
        r, w = ledger.close_step()
        cur = state.value
        reads.append(r)
        writes.append(w)
        hamming.append(bin(prev ^ cur).count("1"))
        if cur == start:
            closed = True
            break
        if cur == saved:
            distinct = False
            break
        if len(reads) == next_save:
            saved = cur
            next_save <<= 1
        prev = cur
    length = len(reads)
    return dict(
        counter=counter.name,
        dim=counter.dim,
        params=dict(counter.params),
        length=length,
        closed=closed,
        distinct=distinct,
        space_efficiency=Fraction(length, 1 << counter.dim),
        avg_reads=Fraction(ledger.total_reads, length),
        worst_reads=ledger.max_reads,
        avg_writes=Fraction(ledger.total_writes, length),
        worst_writes=ledger.max_writes,
        max_hamming=max(hamming),
        total_reads=ledger.total_reads,
        total_writes=ledger.total_writes,
        last_state=BitState.from_int(prev, counter.dim).to_text() if closed else None,
        step_reads=reads,
        step_writes=writes,
        step_hamming=hamming,
    )


def _observed(report):
    """Every compared field of the report but ``interpreted_steps``, and
    its replayed per-step figures as lists."""
    observed = {f.name: getattr(report, f.name) for f in fields(report) if f.compare}
    del observed["interpreted_steps"]
    columns = zip(*report.replay())
    for key in ("step_reads", "step_writes", "step_hamming"):
        observed[key] = list(next(columns))
    return observed


@pytest.mark.parametrize("config", SWEEP_GRID, ids=_grid_id)
def test_tree_walk_matches_interpreted_steps(config):
    name, kw = config
    for counter in _start_states(name, make_counter(name, **kw)):
        full = reference_cycle(counter, 1 << 26)
        report = enumerate_cycle(counter)
        assert _observed(report) == full
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


@pytest.mark.parametrize(
    "name, kw, rank, last",
    [
        # lazy n=8 closes at step 510, inside its 64th block
        ("lazy", dict(n=8), None, None),
        ("binary", dict(dim=10), random.Random(10).randrange(1 << 10), None),
        # from 64 bits on, macro leaves are kept in a list, not an
        # array("q"); these cycles are far too long to run whole, so the
        # last block is fixed
        ("lazy", dict(n=64), None, 1000),
        ("binary", dict(dim=70), None, 1000),
        ("composite", dict(layers=(60, 4, 2)), None, 1000),
    ],
    ids=["lazy-n=8", "binary-dim=10", "lazy-n=64", "binary-dim=70", "composite-60,4,2"],
)
def test_caps_next_to_block_boundaries_match_single_steps(name, kw, rank, last):
    counter = make_counter(name, **kw)
    if rank is not None:
        counter = replace(counter, initial=BitState.from_int(rank, counter.dim))
    if last is None:
        last = enumerate_cycle(counter).length // _K
    assert enumerate_cycle(counter, _K * (last + 1))._macro[0] > 0
    for m in (1, 2, 3, 11, 20, 37, 50, last - 1, last, last + 1):
        for cap in (_K * m - 1, _K * m, _K * m + 1):
            assert _observed(enumerate_cycle(counter, cap)) == reference_cycle(counter, cap), cap


def test_brgc_bypasses_macro_leaves():
    # every brgc step reads all dim bits, so the single-step tree stays
    # empty and no block is ever tried
    counter = make_counter("brgc", dim=12)
    report = enumerate_cycle(counter)
    assert report._macro == (0, 0)
    assert report.interpreted_steps == report.length
    assert _observed(report) == reference_cycle(counter, 1 << 26)


@pytest.mark.parametrize("name, kw", [("lazy", dict(n=16)), ("doublespin", dict(n=16, g=2))])
def test_long_lazy_cycles_take_their_steps_from_macro_leaves(cycle_report, name, kw):
    report = cycle_report(name, **kw)
    steps, stop = report._macro
    assert stop == 0
    assert 10 * steps >= 9 * report.length


def test_rpgc_turns_macro_leaves_off():
    # rpgc d=13 misses nearly every block; its misses outrun its hits by
    # the margin about 65 blocks after the first block start
    report = enumerate_cycle(make_counter("rpgc", dim=13))
    steps, stop = report._macro
    assert 0 < stop <= 1024
    assert 20 * steps <= report.length


@pytest.mark.parametrize(
    "name, kw, limit",
    [
        ("doublespin", dict(n=8, g=2), 9 * 1024),
        ("wine", dict(n=8, g=2, encoding="brgc"), 9 * 1024),
        # 2% above the 19.4 KiB of single steps alone: the macro tree is
        # freed when the run turns it off, before the single-step tree peaks
        ("rpgc", dict(dim=13), 19.4 * 1.02 * 1024),
    ],
)
def test_macro_leaves_keep_the_enumeration_peak(name, kw, limit):
    counter = make_counter(name, **kw)
    # the first run in a process also allocates what later runs reuse
    enumerate_cycle(counter)
    tracemalloc.start()
    try:
        enumerate_cycle(counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def _dat_step(node, state, ledger):
    """One step of a random decision assignment tree (see ``_dat_trees``)."""
    while node is not None:
        if node[0] == "leaf":
            _, writes, node = node
            for pos, op in writes:
                ledger.write(state, pos, ledger.read(state, pos) ^ 1 if op == "t" else op)
            continue
        test, low, high = node
        if test[0] == "read":
            hit = ledger.read(state, test[1])
        else:
            _, off, width, want = test
            run = ledger.read_run(state, off, width, want)
            hit = run.bit_count() & 1 if want is None else run == want & ((1 << width) - 1)
        node = high if hit else low


def _dat_node(rng, dim, budget, depth):
    """A random subtree at most ``depth`` tests deep, whose inner nodes
    are taken from the count left in ``budget[0]``."""
    if depth and budget[0] and rng.random() < 0.75:
        budget[0] -= 1
        if rng.random() < 0.5:
            test = ("read", rng.randrange(dim))
        else:
            off = rng.randrange(dim)
            width = rng.randint(1, dim - off)
            want = rng.choice([None, 0, -1, rng.getrandbits(width)])
            test = ("run", off, width, want)
        low = _dat_node(rng, dim, budget, depth - 1)
        return test, low, _dat_node(rng, dim, budget, depth - 1)
    # toggles, which read the bit they flip, outnumber constants, so that
    # fewer steps collapse states and more runs are long enough to walk
    # the tree
    count = rng.choice([0, 1, 1, 2, 2, 3, 3])
    writes = [(rng.randrange(dim), rng.choice([0, 1, "t", "t", "t"])) for _ in range(count)]
    then = None
    if depth and budget[0] and rng.random() < 0.25:
        # reads after the writes, which may test the bits just written
        then = _dat_node(rng, dim, budget, depth - 1)
    return "leaf", writes, then


def _clocked_step(off, width, node, state, ledger):
    """A binary clock of ``width`` bits at ``off``, whose wrap takes one
    step of the random tree ``node``."""
    if increment_field(state, ledger, off, width):
        _dat_step(node, state, ledger)


@st.composite
def _dat_trees(draw):
    """A counter run by a random decision assignment tree, a start state
    and a cap.

    An inner node tests one bit, or scans a run with ``read_run`` and
    branches on whether all its bits were as wanted (on its parity when
    nothing is wanted). A leaf writes 0-3 bits, each a constant or a
    toggle, and may go on to a subtree of reads after its writes. Paths
    are at most dim + 1 tests deep. The tree comes from a drawn seed, which
    keeps each case to a few draws.

    Most cases put a binary clock of 1-7 bits above the tree's dim bits.
    The clock's wrap takes one step of a tree over all the bits, which may
    read and write the clock too. Such runs are up to 128 times as long as
    the tree's, long enough to walk macro leaves; the clock's low bits flip
    several times inside a block, and the tree's writes to the clock shift
    returns off the block boundaries."""
    dim = draw(st.integers(min_value=2, max_value=9))
    clock = draw(st.integers(min_value=0, max_value=7))
    width = dim + clock
    rng = random.Random(draw(st.integers(min_value=0, max_value=(1 << 32) - 1)))
    tree = _dat_node(rng, width, [rng.randint(0, 3 * dim)], dim + 1)
    start = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    cap = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=16 << dim)))
    initial = BitState.from_int(start, width)
    step = partial(_clocked_step, dim, clock, tree) if clock else partial(_dat_step, tree)
    return CounterSpec("dat", width, {"dim": width}, initial, step), cap


def test_tree_walk_matches_interpreted_steps_on_random_trees():
    # each case also counts towards the paths of the run that a macro leaf
    # reaches: a return to the start or to the saved state inside a block,
    # which the block's steps must take singly, and a cut by the cap
    seen = Counter()

    @settings(max_examples=3000, deadline=None)
    @given(_dat_trees())
    def check(case):
        counter, cap = case
        report = enumerate_cycle(counter, cap)
        assert _observed(report) == reference_cycle(counter, cap or DEFAULT_CYCLE_CAP)
        assert 0 < report.interpreted_steps <= report.length
        if report._macro[0]:
            inside = report.length % _K != 0
            seen["macro"] += 1
            seen["closed inside a block"] += report.closed and inside
            seen["rho inside a block"] += not report.distinct and inside
            seen["cut by the cap"] += not report.closed and report.distinct

    check()
    # about 490 cases walk a macro leaf; of those about 30 return to the
    # start and 80 to the saved state off a block boundary, and 45 are cut
    # by the cap
    assert seen["macro"] >= 300, seen
    assert min(seen.values()) >= 10, seen


def _flag_step(state, ledger):
    # bits 0-1 count in Gray order, bit 2 is a phase and bits 3-4 are
    # flags: 01 and 11 copy the phase into a flag, 10 flips the phase, and
    # 00 clears both flags without reading them. From the start state
    # 00100, the first and the fifth step read the same two bits and
    # change one bit and three bits.
    v = ledger.read(state, 0) | ledger.read(state, 1) << 1
    if v == 0:
        ledger.write(state, 0, 1)
        ledger.write(state, 3, 0)
        ledger.write(state, 4, 0)
    elif v == 1:
        ledger.write(state, 1, 1)
        ledger.write(state, 3, ledger.read(state, 2))
    elif v == 3:
        ledger.write(state, 0, 0)
        ledger.write(state, 4, ledger.read(state, 2))
    else:
        ledger.write(state, 1, 0)
        ledger.write(state, 2, ledger.read(state, 2) ^ 1)


FLAG_COUNTER = CounterSpec("flags", 5, {"dim": 5}, BitState.from_text("00100"), _flag_step)


def test_blind_writes_fix_the_hamming_weight_of_a_leaf():
    # a path that left the blind-written flags untested would send the
    # fifth step down the first step's leaf, and its three changed bits,
    # the cycle's maximum, would never be seen
    full = reference_cycle(FLAG_COUNTER, 1 << 26)
    assert full["step_hamming"] == [1, 2, 2, 2, 3, 1, 1, 2]
    report = enumerate_cycle(FLAG_COUNTER)
    assert report.max_hamming == 3
    assert _observed(report) == full


def _first_violation(full, c):
    for step, (h, w) in enumerate(zip(full["step_hamming"], full["step_writes"]), 1):
        if h > c:
            return step, "hamming", h
        if w > c:
            return step, "writes", w
    return None


@pytest.mark.parametrize(
    "counter, c",
    [
        (make_counter("binary", dim=10), 1),
        (make_counter("binary", dim=10), 3),
        (make_counter("doublespin", n=4, g=2), 1),
        (make_counter("doublespin", n=4, g=2), 4),
        (make_counter("spin", n=4), 1),
        (make_counter("spin", n=4), 3),
        (FLAG_COUNTER, 1),
    ],
    ids=lambda v: v.name if isinstance(v, CounterSpec) else f"c={v}",
)
def test_verify_names_the_first_violating_step(counter, c):
    check = verify_quasi_gray(enumerate_cycle(counter), c)
    expected = _first_violation(reference_cycle(counter, 1 << 26), c)
    assert not check.passed
    assert (check.violation_step, check.violation_kind, check.violation_value) == expected


@pytest.mark.parametrize(
    "counter, c, text",
    [
        (make_counter("binary", dim=4), 1, "step 2: hamming = 2 exceeds c = 1"),
        # the first step changes one bit but writes three
        (FLAG_COUNTER, 2, "step 1: writes = 3 exceeds c = 2"),
        (FLAG_COUNTER, 3, "quasi-Gray with c=3"),
    ],
    ids=["binary-hamming", "flags-writes", "flags-pass"],
)
def test_verify_describes_its_outcome(counter, c, text):
    assert verify_quasi_gray(enumerate_cycle(counter), c).describe() == text


def _counting(counter):
    """``counter`` with its step function wrapped to count its calls."""
    calls = [0]

    def advance(state, ledger):
        calls[0] += 1
        counter.advance(state, ledger)

    return replace(counter, advance=advance), calls


def test_verify_of_a_passing_report_builds_no_per_step_data():
    counter, calls = _counting(make_counter("wine", n=4, g=2))
    report = enumerate_cycle(counter)
    assert calls[0] == report.interpreted_steps
    calls[0] = 0
    assert verify_quasi_gray(report, 3).passed
    assert calls[0] == 0


@pytest.mark.parametrize("name, kw, step", [("lazy", dict(n=16), 2), ("binary", dict(dim=20), 2)])
def test_a_failing_verify_replays_up_to_its_first_violation(name, kw, step):
    counter, calls = _counting(make_counter(name, **kw))
    report = enumerate_cycle(counter)
    assert calls[0] == report.interpreted_steps
    calls[0] = 0
    check = verify_quasi_gray(report, 1)
    assert not check.passed
    assert calls[0] == check.violation_step == step


@pytest.mark.parametrize(
    "field, by",
    [
        ("total_reads", 1),
        ("total_writes", -1),
        ("worst_reads", 1),
        ("worst_writes", 1),
        ("max_hamming", 1),
    ],
)
def test_per_step_arrays_check_the_replay_against_the_report(field, by):
    report = enumerate_cycle(make_counter("lazy", n=4))
    altered = replace(report, **{field: getattr(report, field) + by})
    with pytest.raises(AssertionError, match="replay disagrees"):
        list(altered.replay())


@pytest.mark.parametrize(
    "name, kw, cap",
    # the rpgc run stops at 2^16 of its 2^20 steps: traced by tracemalloc,
    # the whole cycle takes about a minute
    [("lazy", dict(n=16), None), ("rpgc", dict(dim=20), 1 << 16)],
)
def test_enumeration_memory_does_not_grow_with_the_steps(name, kw, cap):
    # three per-step arrays of two bytes would hold 6 bytes a step: 768 KiB
    # over lazy's 131,070 steps and 384 KiB over rpgc's first 2^16
    counter = make_counter(name, **kw)
    tracemalloc.start()
    try:
        report = enumerate_cycle(counter, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.length == (131070 if cap is None else cap)
    assert peak < 128 * 1024
    assert sum(1 for _ in report.replay()) == report.length


def test_grafts_stop_short_of_long_read_paths():
    # each of the first steps of a 2^18-bit composite compares two layers
    # half the size of the string; grafting those paths held about 22 MiB
    counter = make_counter("composite", layers=[131072, 131072])
    tracemalloc.start()
    try:
        report = enumerate_cycle(counter, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.length == report.interpreted_steps == 3
    assert peak < 1024 * 1024


def test_per_step_arrays_stay_out_of_equality_and_repr():
    counter = make_counter("rpgc", dim=5)
    fresh, read = enumerate_cycle(counter), enumerate_cycle(counter)
    assert len(list(read.replay())) == read.length == 32
    assert fresh == read and repr(fresh) == repr(read)
    assert "step_" not in repr(read) and "_source" not in repr(read)
    assert "_macro" not in repr(read)


def _charged_step(counter, value):
    """Run one step from ``value``: its read mask with the values read, and
    its write mask with the values left in place."""
    state = BitState.from_int(value, counter.dim)
    ledger = ProbeLedger()
    ledger.open_step()
    counter.advance(state, ledger)
    reads = (ledger.rmask, value & ledger.rmask)
    writes = (ledger.wmask, state.value & ledger.wmask)
    ledger.close_step()
    return reads, writes, state.value


@pytest.mark.parametrize("config", SWEEP_GRID, ids=_grid_id)
def test_steps_see_only_the_bits_they_charge(config):
    # the decision tree is sound only if a step's reads and writes are a
    # function of the bits it charge-read
    name, kw = config
    counter = make_counter(name, **kw)
    report = enumerate_cycle(counter)
    stride = max(1, report.length // 12)
    value = counter.initial.value
    for step in range(report.length):
        reads, writes, after = _charged_step(counter, value)
        if step % stride == 0:
            for p in range(counter.dim):
                if not reads[0] >> p & 1:
                    flipped = _charged_step(counter, value ^ (1 << p))
                    assert flipped[:2] == (reads, writes), (step, p)
        value = after
