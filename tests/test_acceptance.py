"""Acceptance criteria, one test per criterion (parametrized by
configuration). Each check prints a PASS/FAIL line; run with ``-v -s`` to
see them. The average-read claim for the base lazy counter is asserted as
stated even though the measured value is width+1; see the README's
measured-deviations note."""

import time
from fractions import Fraction

import pytest

from quasigray import (
    ProbeLedger,
    check_bounds,
    enumerate_cycle,
    make_counter,
    paper_bounds,
    verify_quasi_gray,
)
from quasigray.bounds import LogLinearBound
from quasigray.brgc import brgc_next, brgc_prev, brgc_unrank
from quasigray.reports import build_table1_rows
from quasigray.rpgc import rpgc_decrement, rpgc_increment

GOLDEN_BRGC = {
    1: ["0", "1"],
    2: ["00", "01", "11", "10"],
    3: ["000", "001", "011", "010", "110", "111", "101", "100"],
}

LAZY_NS = [2, 4, 8, 16]
SPIN_GRID = [(n, g) for n in (2, 4, 8, 16) for g in (1, 2)] + [(4, 3), (8, 3)]
TREND_GRID = [(n, g) for n in (4, 8, 16) for g in (1, 2, 3)]


def check(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def walk_states(counter, steps):
    state = counter.fresh_state()
    ledger = ProbeLedger()
    out = [state.to_text()]
    for _ in range(steps):
        ledger.open_step()
        counter.advance(state, ledger)
        ledger.close_step()
        out.append(state.to_text())
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_criterion_01_golden_reflected_sequences(dim):
    states = walk_states(make_counter("brgc", dim=dim), (1 << dim))
    expected = GOLDEN_BRGC[dim] + [GOLDEN_BRGC[dim][0]]  # cyclic wrap
    check(
        1,
        f"reflected code dim {dim} matches the reference table",
        states == expected,
        f"got {states}",
    )


@pytest.mark.parametrize("d", range(1, 19))
def test_criterion_02_rpgc_space_optimality(cycle_report, d):
    report = cycle_report("rpgc", dim=d)
    ok = (
        report.closed
        and report.distinct
        and report.length == (1 << d)
        and report.max_hamming == 1
        and report.worst_writes == 1
    )
    check(
        2,
        f"partition code d={d} space-optimal Gray cycle",
        ok,
        f"L={report.length} ham={report.max_hamming} w={report.worst_writes}",
    )


@pytest.mark.parametrize("d", range(2, 19))
def test_criterion_03_rpgc_average_reads(cycle_report, d):
    report = cycle_report("rpgc", dim=d)
    avg = report.avg_reads
    ok = LogLinearBound(Fraction(6), d).admits(avg)
    if d in (2, 4, 8, 16):
        ok = ok and avg <= 4 * (d.bit_length() - 1)
    ok = ok and report.worst_reads <= d
    if d % 2 == 0:
        ok = ok and report.worst_reads == d
    check(
        3,
        f"partition code d={d} average reads within bound",
        ok,
        f"avg={float(avg):.4f} worst={report.worst_reads}",
    )


def _tracked(op, state):
    ledger = ProbeLedger()
    ledger.open_step()
    op(state, ledger)
    ledger.close_step()


@pytest.mark.parametrize("d", range(1, 13))
def test_criterion_04_increment_then_decrement(d):
    state = make_counter("rpgc", dim=d).fresh_state()
    ok = True
    for _ in range(1 << d):
        before = state.copy()
        _tracked(rpgc_increment, state)
        probe = state.copy()
        _tracked(rpgc_decrement, probe)
        if probe != before:
            ok = False
            break
    check(4, f"increment/decrement inverse on the full d={d} cycle", ok)


@pytest.mark.parametrize("d", range(1, 13))
def test_criterion_04_decrement_then_increment(d):
    state = make_counter("rpgc", dim=d).fresh_state()
    ok = True
    for _ in range(1 << d):
        before = state.copy()
        _tracked(rpgc_decrement, state)
        probe = state.copy()
        _tracked(rpgc_increment, probe)
        if probe != before:
            ok = False
            break
    check(4, f"decrement/increment inverse on the full d={d} cycle", ok)


def test_criterion_05_composite_cost_decomposition(cycle_report):
    inner = cycle_report("rpgc", dim=6)
    report = cycle_report("composite", layers=(6, 3))
    r_hat = inner.avg_reads
    bound = LogLinearBound(Fraction(6), 3, Fraction(2) + r_hat / 8)
    ok = (
        report.closed
        and report.distinct
        and report.length == (1 << 9)
        and report.worst_writes <= 2
        and bound.admits(report.avg_reads)
        and report.worst_reads == inner.worst_reads + 3
    )
    check(
        5,
        "two-layer composite meets the cost decomposition",
        ok,
        f"L={report.length} w={report.worst_writes} "
        f"avg={float(report.avg_reads):.4f} worst={report.worst_reads}",
    )


def test_criterion_06_three_layer_write_budget(cycle_report):
    report = cycle_report("composite", layers=(10, 3, 2))
    ok = (
        report.closed
        and report.distinct
        and report.length == (1 << 15)
        and report.worst_writes == 3  # bounded by 3 and witnessed
    )
    check(
        6,
        "layered plan 10,3,2 is space-optimal with write budget 3",
        ok,
        f"L={report.length} worst_writes={report.worst_writes}",
    )


@pytest.mark.parametrize("n", LAZY_NS)
def test_criterion_07_lazy_length_and_worst_case(cycle_report, n):
    report = cycle_report("lazy", n=n)
    width = n.bit_length() - 1
    ok = (
        report.closed
        and report.distinct
        and report.length == (1 << (n + 1)) - 2
        and report.worst_reads == report.worst_writes
        and report.worst_writes <= width + 1
    )
    check(
        7,
        f"lazy n={n} length and worst case",
        ok,
        f"L={report.length} worst=({report.worst_reads},{report.worst_writes})",
    )


@pytest.mark.parametrize("n", LAZY_NS)
def test_criterion_07_lazy_average_writes(cycle_report, n):
    report = cycle_report("lazy", n=n)
    check(
        7,
        f"lazy n={n} average writes <= 3",
        report.avg_writes <= 3,
        f"avg_writes={float(report.avg_writes):.4f}",
    )


@pytest.mark.parametrize("n", LAZY_NS)
def test_criterion_07_lazy_average_reads(cycle_report, n):
    # stated bound: average reads <= 3; the step must read the whole
    # pointer before probing the payload, so the measured average is
    # width+1 and n in {8, 16} cannot meet the stated bound
    report = cycle_report("lazy", n=n)
    check(
        7,
        f"lazy n={n} average reads <= 3",
        report.avg_reads <= 3,
        f"avg_reads={float(report.avg_reads):.4f} (width+1={n.bit_length()})",
    )


@pytest.mark.parametrize("n", LAZY_NS)
def test_criterion_08_spin_bounds(cycle_report, n):
    report = cycle_report("spin", n=n)
    width = n.bit_length() - 1
    ok = report.closed and report.distinct and report.worst_reads <= width + 2
    check(
        8,
        f"spin n={n} closed, distinct, worst reads <= log n + 2",
        ok,
        f"L={report.length} worst_reads={report.worst_reads}",
    )


@pytest.mark.parametrize("n,g", SPIN_GRID)
def test_criterion_08_doublespin_bounds(cycle_report, n, g):
    report = cycle_report("doublespin", n=n, g=g)
    width = n.bit_length() - 1
    limit = g + width + 1
    ok = (
        report.closed
        and report.distinct
        and report.worst_reads <= limit
        and report.worst_writes <= limit
    )
    check(
        8,
        f"double spin n={n} g={g} worst reads/writes <= g + log n + 1",
        ok,
        f"L={report.length} worst=({report.worst_reads},{report.worst_writes})",
    )


@pytest.mark.parametrize("n,g", SPIN_GRID)
def test_criterion_08_wine_bounds(cycle_report, n, g):
    report = cycle_report("wine", n=n, g=g)
    width = n.bit_length() - 1
    ok = (
        report.closed
        and report.distinct
        and report.worst_writes <= 3
        and report.worst_reads <= g + width + 1
        and verify_quasi_gray(report, 3).passed
    )
    check(
        8,
        f"wine n={n} g={g} writes <= 3, reads <= g + log n + 1",
        ok,
        f"L={report.length} worst=({report.worst_reads},{report.worst_writes})",
    )


@pytest.mark.parametrize("n", LAZY_NS)
def test_criterion_08_doublespin_g1_matches_spin_stepwise(n):
    spin = make_counter("spin", n=n)
    ds = make_counter("doublespin", n=n, g=1)
    s1, s2 = spin.fresh_state(), ds.fresh_state()
    l1, l2 = ProbeLedger(), ProbeLedger()
    steps = 0
    ok = True
    while True:
        l1.open_step()
        spin.advance(s1, l1)
        c1 = l1.close_step()
        l2.open_step()
        ds.advance(s2, l2)
        c2 = l2.close_step()
        steps += 1
        if s1 != s2 or c1 != c2:
            ok = False
            break
        if s1.value == 0:
            break
    check(
        8,
        f"double spin g=1 walks in lockstep with spin at n={n}",
        ok,
        f"{steps} steps",
    )


def test_criterion_09_length_deltas_stable_and_documented():
    configs = [("spin", dict(n=2)), ("spin", dict(n=4)),
               ("doublespin", dict(n=4, g=2)), ("wine", dict(n=4, g=2))]
    lines = []
    ok = True
    for name, kw in configs:
        counter = make_counter(name, **kw)
        first = check_bounds(enumerate_cycle(counter), paper_bounds(counter))
        second = check_bounds(enumerate_cycle(counter), paper_bounds(counter))
        d1 = [(r.bound.formula, r.delta) for r in first if r.passed is None]
        d2 = [(r.bound.formula, r.delta) for r in second if r.passed is None]
        ok = ok and d1 == d2 and len(d1) >= 1
        lines.append(f"{name} {kw}: " + ", ".join(f"{f} delta {d:+d}" for f, d in d1))
    check(9, "claimed-length deltas computed and stable", ok, " | ".join(lines))


@pytest.mark.parametrize("name", ["wine", "doublespin"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_criterion_10_efficiency_trend(cycle_report, name, n):
    deficiencies = []
    ok = True
    for g in (1, 2, 3):
        report = cycle_report(name, n=n, g=g)
        deficiency = Fraction(1) - report.space_efficiency
        deficiencies.append(deficiency)
        ok = ok and deficiency <= Fraction(4, 1 << g)
    ok = ok and deficiencies[0] >= deficiencies[1] >= deficiencies[2]
    check(
        10,
        f"{name} n={n} inefficiency non-increasing in g and <= 2^(2-g)",
        ok,
        "deficiencies " + ", ".join(f"{float(x):.5f}" for x in deficiencies),
    )


@pytest.fixture(scope="module")
def table1_rows():
    return build_table1_rows()[1]


def test_criterion_11_table_reproduction(table1_rows):
    ok = True
    details = []
    for d in range(2, 11):
        row = next(r for r in table1_rows if r["counter"] == "binary" and r["dim"] == d)
        avg = Fraction(row["avg_reads"]["num"], row["avg_reads"]["den"])
        expected = Fraction(2) - Fraction(1, 1 << (d - 1))
        if avg != expected:
            ok = False
            details.append(f"binary d={d}: {avg} != {expected}")
        row = next(r for r in table1_rows if r["counter"] == "brgc" and r["dim"] == d)
        avg = Fraction(row["avg_reads"]["num"], row["avg_reads"]["den"])
        avg_w = Fraction(row["avg_writes"]["num"], row["avg_writes"]["den"])
        if avg != d or avg_w != 1 or row["worst_writes"] != 1:
            ok = False
            details.append(f"brgc d={d}: avg={avg} writes={avg_w}")
    check(
        11,
        "summary table matches the exact closed forms for d in [2,10]",
        ok,
        "; ".join(details) or "binary avg = 2-2^(1-d), reflected avg = d, writes = 1",
    )


def test_criterion_12_bounded_walk_at_scale():
    counter = make_counter("rpgc", dim=1024)
    started = time.monotonic()
    report = enumerate_cycle(counter, cap=100_000)
    elapsed = time.monotonic() - started
    ok = (
        report.length == 100_000
        and min(w for _, w, _ in report.replay()) == 1
        and report.worst_writes == 1
        and report.worst_reads <= 1024
        and elapsed < 30.0
    )
    check(
        12,
        "d=1024 bounded walk: one write per step, reads <= d",
        ok,
        f"{report.length} steps in {elapsed:.2f}s worst_reads={report.worst_reads}",
    )


@pytest.mark.parametrize("dim", range(1, 17))
def test_criterion_13_closed_form_oracle_equivalence(dim):
    size = 1 << dim
    state = brgc_unrank(0, dim)
    ledger = ProbeLedger()
    ok = True
    for r in range(size):
        ledger.open_step()
        brgc_next(state, ledger)
        ledger.close_step()
        if state != brgc_unrank((r + 1) % size, dim):
            ok = False
            break
    if ok:
        for r in range(size, 0, -1):
            ledger.open_step()
            brgc_prev(state, ledger)
            ledger.close_step()
            if state != brgc_unrank((r - 1) % size, dim):
                ok = False
                break
    check(13, f"reflected code dim {dim} agrees with the rank/unrank oracle", ok)
