import pytest

from quasigray import (
    BitState,
    PreconditionError,
    ProbeLedger,
    UsageError,
    auto_plan,
    logstar_plan,
    make_composite_counter,
)
from quasigray.composite import (
    _T16,
    _T17,
    Layer,
    LayerPlan,
    build_layered,
    composite_step,
)
from quasigray.lazy import _max_state
from quasigray.logmath import log_star


def field_int(state, off, width):
    return sum(state.bits[off + j] << j for j in range(width))


def test_two_layer_stepping_advances_outer_then_inner():
    # inner BRGC on bits 0-1, outer RPGC on bits 2-3
    plan = build_layered([2, 2], inner_kind="brgc")
    state = BitState.zeros(plan.total_dim)
    ledger = ProbeLedger()

    ledger.open_step()
    composite_step(plan, state, ledger)
    _, writes = ledger.close_step()
    # outer moved off its initial state, inner untouched
    assert writes == 1
    assert field_int(state, 0, 2) == 0
    assert field_int(state, 2, 2) != 0

    # outer has period 4; at the wrap step the inner code advances too
    for stepno in range(2, 5):
        ledger.open_step()
        composite_step(plan, state, ledger)
        _, writes = ledger.close_step()
    assert writes == 2  # the wrap step writes one bit per layer
    assert field_int(state, 2, 2) == 0  # outer back at its initial state
    assert field_int(state, 0, 2) == 1  # inner took one reflected-code step


def test_two_layer_brgc_inner_cycle_is_full(cycle_report):
    report = cycle_report("composite", layers=(2, 2), inner="brgc")
    assert report.closed and report.distinct
    assert report.length == 16


def test_single_layer_plan_degenerates_to_the_plain_code(cycle_report):
    report = cycle_report("composite", layers=(3,))
    assert report.length == 8
    assert report.worst_writes == 1


def test_three_layer_plan_length_and_writes(cycle_report):
    report = cycle_report("composite", layers=(10, 3, 2))
    assert report.closed and report.distinct
    assert report.length == 1 << 15
    assert report.worst_writes <= 3


def test_worst_case_writes_bounded_by_layer_count():
    plan = build_layered([2, 2, 2, 2])
    counter = make_composite_counter(plan)
    assert counter.claimed_c == 4
    assert plan.claimed_writes == 4


def test_plan_serialization_lists_innermost_first():
    plan = build_layered([10, 3, 2], inner_kind="rpgc")
    assert plan.describe() == [("rpgc", 10), ("rpgc", 3), ("rpgc", 2)]
    assert plan.total_dim == 15
    assert plan.offsets == (0, 10, 13)


def test_build_layered_validation():
    with pytest.raises(UsageError):
        build_layered([])
    with pytest.raises(UsageError):
        build_layered([3], inner_kind="binary")
    with pytest.raises(UsageError):
        LayerPlan([Layer("rpgc", 0)])


def test_composite_step_checks_state_dimension():
    plan = build_layered([2, 2])
    ledger = ProbeLedger()
    ledger.open_step()
    with pytest.raises(UsageError):
        composite_step(plan, BitState.zeros(3), ledger)


def test_auto_plan_single_layer_cases():
    assert auto_plan(64, 1).describe() == [("rpgc", 64)]
    assert auto_plan(1 << 11, 1).describe() == [("rpgc", 1 << 11)]
    assert auto_plan(64, 1).claimed_writes == 1


def test_auto_plan_rejects_unreachable_preconditions():
    with pytest.raises(PreconditionError, match=r"log\^\(3\)\(64\) >= 11"):
        auto_plan(64, 2)
    with pytest.raises(PreconditionError):
        auto_plan(1 << 20, 3)
    with pytest.raises(UsageError):
        auto_plan(10, 0)


def test_logstar_plan_rejects_small_dimensions():
    with pytest.raises(PreconditionError):
        logstar_plan(1000)
    with pytest.raises(PreconditionError):
        logstar_plan(1 << 16)


def test_logstar_plan_first_threshold():
    plan = logstar_plan(1 << 17)
    assert plan.describe() == [("rpgc", 1 << 17)]
    assert plan.claimed_writes == 2


def _recursive_logstar_layers(d):
    """The layer split written as the recursion it is defined by."""
    if d > 15 + _T17:
        return _recursive_logstar_layers(d - 5) + (Layer("rpgc", 5),)
    if d > 10 + _T17:
        return _recursive_logstar_layers(d - 7) + (Layer("rpgc", 7),)
    if d > 3 + _T17:
        return _recursive_logstar_layers(d - (3 + _T16)) + (Layer("rpgc", 3 + _T16),)
    return auto_plan(d, (log_star(d) - 3) // 2).layers


@pytest.mark.parametrize("extra", [5, 12, 200])
def test_logstar_plan_matches_the_recursive_split(extra):
    d = _T17 + extra
    assert logstar_plan(d).layers == _recursive_logstar_layers(d)


def test_logstar_plan_peels_thousands_of_layers():
    # one layer per 5 bits above 2^17: deeper than Python's recursion limit
    for d in (136072, 1 << 18):
        dims = [dim for _, dim in logstar_plan(d).describe()]
        assert sum(dims) == d
    assert len(dims) > 26000


def test_logstar_plan_full_chain():
    d = 16 + (1 << 17)
    plan = logstar_plan(d)
    dims = [dim for _, dim in plan.describe()]
    assert dims[-3:] == [3 + (1 << 16), 7, 5]
    assert sum(dims) == d
    assert len(plan.layers) <= plan.claimed_writes == 5


@pytest.mark.parametrize(
    "d",
    [
        16 + _T17,
        pytest.param(
            26 + _T17,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="logstar_plan's claimed_writes (5) is below its 6 layers "
                "from d = 2^17 + 26 on; recorded as a FOUND in CHANGES.md",
            ),
        ),
    ],
    ids=["2^17+16", "2^17+26"],
)
def test_logstar_plan_claims_the_writes_of_its_wrap_step(d):
    # with every layer at its maximal state, one step wraps the whole
    # string to zeros and writes one bit per layer
    plan = logstar_plan(d)
    value = 0
    for lay, off in zip(plan.layers, plan.offsets):
        value |= _max_state(lay.kind, lay.dim) << off
    state = BitState.from_int(value, plan.total_dim)
    ledger = ProbeLedger()
    ledger.open_step()
    make_composite_counter(plan).advance(state, ledger)
    _, writes = ledger.close_step()
    assert state.value == 0
    assert writes == len(plan.layers)
    assert writes <= plan.claimed_writes
