import math
import time
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasigray import logmath
from quasigray.bounds import LogLinearBound
from quasigray.logmath import (
    _ln_sign,
    compare_with_log2,
    is_power_of_two,
    iterated_log_at_least,
    log_star,
)


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
    # 126797/80000 = 1.5849625 sits 7.2e-10 below log2(3): only the
    # rounded logarithms separate the two
    assert compare_with_log2(Fraction(126797, 80000), 3) == -1
    assert compare_with_log2(Fraction(126798, 80000), 3) == 1


def test_compare_with_log2_near_ties_with_huge_denominators_finish():
    # an exact power test would need 3**(10**9), a 1.6 Gbit power; the
    # rounded-logarithm test decides instead
    centre = Fraction(126797, 80000)
    for delta, expected in ((Fraction(1, 10**9), 1), (Fraction(-1, 10**9), -1)):
        start = time.perf_counter()
        assert compare_with_log2(centre + delta, 3) == expected
        assert time.perf_counter() - start < 1.0


def _convergents(x, count):
    """The first ``count`` continued-fraction convergents of ``x``."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    out = []
    for _ in range(count):
        a = x.numerator // x.denominator
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        out.append(Fraction(p, q))
        x = 1 / (x - a)
    return out


@pytest.mark.parametrize(
    "k, precisions",
    [(40, [40, 80]), (41, [40, 80]), (100, [40, 80, 160]), (101, [40, 80, 160])],
)
def test_convergents_of_log2_3_take_the_precision_doublings(monkeypatch, k, precisions):
    # a convergent p/q of log2(3) lies about 1/q^2 from it, so the gap
    # q ln 3 - p ln 2 shrinks like 1/q: 20-digit denominators defeat 40
    # digits of logarithm, 50-digit ones 80 digits
    ctx = Context(prec=300)
    log2_3 = Fraction(ctx.divide(Decimal(3).ln(ctx), Decimal(2).ln(ctx)))
    convergent = _convergents(log2_3, k + 1)[k]
    seen = []
    monkeypatch.setattr(
        logmath, "Context", lambda **kw: seen.append(kw["prec"]) or Context(**kw)
    )
    start = time.perf_counter()
    sign = compare_with_log2(convergent, 3)
    assert time.perf_counter() - start < 1.0
    # the convergents fall below log2(3) at even k and above it at odd k
    assert sign == (convergent > log2_3) - (convergent < log2_3) == (-1) ** (k + 1)
    assert seen == precisions


@given(
    st.integers(min_value=1, max_value=4000),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([3, 5, 6, 7, 10, 1000, 12345]),
)
def test_ln_sign_agrees_with_the_exact_power_test(den, shift, arg):
    # num within a few units of den * log2(arg) puts the pair near a tie
    power = arg**den
    num = max(1, power.bit_length() - 1 + shift)
    expected = 1 if (1 << num) > power else -1
    assert _ln_sign(num, den, arg) == expected


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
