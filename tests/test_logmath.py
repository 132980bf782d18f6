import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasigray.bounds import LogLinearBound
from quasigray.logmath import (
    compare_with_log2,
    floor_log2,
    is_power_of_two,
    iterated_log_at_least,
    log_star,
)
from quasigray.probes import UsageError


def test_floor_log2():
    assert floor_log2(1) == 0
    assert floor_log2(2) == 1
    assert floor_log2(255) == 7
    assert floor_log2(256) == 8
    with pytest.raises(UsageError):
        floor_log2(0)


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]


def test_iterated_log_thresholds_exact():
    assert iterated_log_at_least(1 << 11, 1, 11)
    assert not iterated_log_at_least((1 << 11) - 1, 1, 11)
    assert iterated_log_at_least(1 << (1 << 11), 2, 11)
    assert not iterated_log_at_least((1 << (1 << 11)) - 1, 2, 11)
    assert not iterated_log_at_least(64, 3, 11)
    assert iterated_log_at_least(5, 0, 5)


def test_log_star_values():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(3) == 2
    assert log_star(4) == 2
    assert log_star(5) == 3
    assert log_star(16) == 3
    assert log_star(17) == 4
    assert log_star(1 << 16) == 4
    assert log_star((1 << 16) + 1) == 5
    assert log_star(1 << 100000) == 6


def test_compare_with_log2_powers_are_exact():
    assert compare_with_log2(Fraction(3), 8) == 0
    assert compare_with_log2(Fraction(25, 8), 8) == 1
    assert compare_with_log2(Fraction(23, 8), 8) == -1


def test_compare_with_log2_irrational_tight_cases():
    # log2(3) = 1.58496250072...
    assert compare_with_log2(Fraction(1584962, 1000000), 3) == -1
    assert compare_with_log2(Fraction(1584963, 1000000), 3) == 1
    assert compare_with_log2(Fraction(19, 12), 3) == -1


def test_compare_with_log2_decides_near_ties_exactly():
    # 126797/80000 = 1.5849625 sits 7.2e-10 below log2(3): grid rounds with
    # k up to 2**24 cannot separate the two, and the round at k = den does
    assert compare_with_log2(Fraction(126797, 80000), 3) == -1
    assert compare_with_log2(Fraction(126798, 80000), 3) == 1


def test_fraction_le_log_linear():
    # 6*log2(3) = 9.5097...
    assert LogLinearBound(Fraction(6), 3).admits(Fraction(95, 10))
    assert not LogLinearBound(Fraction(6), 3).admits(Fraction(96, 10))
    assert LogLinearBound(Fraction(6), 3, offset=Fraction(2)).admits(Fraction(11))


@given(
    st.fractions(
        min_value=Fraction(0), max_value=Fraction(32), max_denominator=10000
    ),
    st.integers(min_value=2, max_value=2000),
)
def test_compare_with_log2_agrees_with_floats_away_from_ties(value, arg):
    target = math.log2(arg)
    approx = float(value)
    if abs(approx - target) < 1e-6:
        return
    expected = 1 if approx > target else -1
    assert compare_with_log2(value, arg) == expected
