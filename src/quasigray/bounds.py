"""Claimed-bound specifications and their evaluation against cycle reports.

This module is the one home of every documented claim: ``paper_bounds``
lists what ``verify`` checks, and ``table_bounds`` derives from it the
bound cells that ``table1`` prints. A bound's value is an exact integer or
rational, or a ``LogLinearBound`` (coeff * log2(arg) + offset) whose
comparisons are certified with integer arithmetic. Length formulas that
the counters' own enumerations contradict are marked disputed: checking
them yields a delta instead of a pass/fail.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .harness import DECIMAL_DIGITS, CycleReport, decimal_str
from .logmath import compare_with_log2, is_power_of_two
from .probes import CounterSpec, UsageError


@dataclass(frozen=True)
class LogLinearBound:
    """The value ``coeff * log2(arg) + offset``."""

    coeff: Fraction
    arg: int
    offset: Fraction = Fraction(0)

    def admits(self, value: Fraction) -> bool:
        """Certified test of ``value <= coeff*log2(arg) + offset``."""
        if self.coeff <= 0:
            raise UsageError("coefficient must be positive")
        return compare_with_log2((value - self.offset) / self.coeff, self.arg) <= 0

    def decimal(self) -> str:
        if is_power_of_two(self.arg):
            exact = self.coeff * (self.arg.bit_length() - 1) + self.offset
            return decimal_str(Fraction(exact))
        import math

        return format(
            float(self.coeff) * math.log2(self.arg) + float(self.offset),
            f".{DECIMAL_DIGITS}g",
        )


BoundValue = Union[int, Fraction, LogLinearBound]


def _le(actual: Union[int, Fraction], value: BoundValue) -> bool:
    if isinstance(value, LogLinearBound):
        return value.admits(Fraction(actual))
    return actual <= value


# bound kind -> (report field it is checked against, test of measured vs bound)
BOUND_CHECKS = {
    "length_exact": ("length", operator.eq),
    "avg_reads_le": ("avg_reads", _le),
    "worst_reads_le": ("worst_reads", _le),
    "worst_writes_le": ("worst_writes", _le),
    "hamming_le": ("max_hamming", _le),
    "efficiency_ge": ("space_efficiency", operator.ge),
}
BOUND_KINDS = tuple(BOUND_CHECKS)


@dataclass(frozen=True)
class BoundSpec:
    """One claim about a counter, evaluable against its cycle report."""

    kind: str
    formula: str
    value: BoundValue
    source: str
    disputed: bool = False

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise UsageError(f"unknown bound kind {self.kind!r}")

    def value_decimal(self) -> str:
        if isinstance(self.value, LogLinearBound):
            return self.value.decimal()
        return decimal_str(Fraction(self.value))


@dataclass(frozen=True)
class BoundResult:
    bound: BoundSpec
    actual: Union[int, Fraction]
    passed: Optional[bool]  # None when the bound is disputed (delta mode)
    delta: Optional[int] = None

    def describe(self) -> str:
        b = self.bound
        actual = (
            decimal_str(self.actual)
            if isinstance(self.actual, Fraction)
            else str(self.actual)
        )
        if self.passed is None:
            return (
                f"DELTA {b.kind} {b.formula} = {b.value_decimal()} "
                f"vs enumerated {actual} (delta {self.delta:+d}) [{b.source}]"
            )
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {b.kind} {b.formula} = {b.value_decimal()} "
            f"vs measured {actual} [{b.source}]"
        )


def check_bounds(report: CycleReport, bounds: List[BoundSpec]) -> List[BoundResult]:
    """Evaluate each bound; disputed bounds report deltas."""
    if not report.closed:
        raise UsageError("check_bounds needs a closed report")
    results = []
    for bound in bounds:
        field, holds = BOUND_CHECKS[bound.kind]
        actual = getattr(report, field)
        if bound.disputed:
            results.append(BoundResult(bound, actual, None, actual - int(bound.value)))
        else:
            results.append(BoundResult(bound, actual, holds(actual, bound.value)))
    return results


def _length_bound(formula: str, value: int, source: str, disputed: bool = False) -> BoundSpec:
    return BoundSpec("length_exact", formula, value, source, disputed)


def _worst_pair(formula: str, value: int, family: str) -> List[BoundSpec]:
    """One cap on both the reads and the writes of every step."""
    return [
        BoundSpec("worst_reads_le", formula, value, f"{family} worst reads"),
        BoundSpec("worst_writes_le", formula, value, f"{family} worst writes"),
    ]


def paper_bounds(counter: CounterSpec) -> List[BoundSpec]:
    """The documented claims for one counter configuration."""
    name = counter.name
    p = counter.params
    if name == "binary":
        d = counter.dim
        return [
            _length_bound("2^d", 1 << d, "binary counter length"),
            BoundSpec(
                "avg_reads_le",
                "2 - 2^(1-d)",
                Fraction(2) - Fraction(1, 1 << (d - 1)),
                "binary counter average",
            ),
            *_worst_pair("d", d, "binary counter"),
        ]
    if name == "brgc":
        d = counter.dim
        return [
            _length_bound("2^d", 1 << d, "reflected code length"),
            BoundSpec("avg_reads_le", "d", d, "reflected code average reads"),
            BoundSpec("worst_reads_le", "d", d, "reflected code worst reads"),
            BoundSpec("worst_writes_le", "1", 1, "reflected code single write"),
            BoundSpec("hamming_le", "1", 1, "Gray property"),
        ]
    if name == "rpgc":
        d = counter.dim
        bounds = [
            _length_bound("2^d", 1 << d, "partition code length"),
            BoundSpec("worst_reads_le", "d", d, "partition code worst reads"),
            BoundSpec("worst_writes_le", "1", 1, "partition code single write"),
            BoundSpec("hamming_le", "1", 1, "Gray property"),
        ]
        if d >= 2:
            bounds.insert(
                1,
                BoundSpec(
                    "avg_reads_le",
                    "6*log2(d)",
                    LogLinearBound(Fraction(6), d),
                    "partition code average reads",
                ),
            )
            if is_power_of_two(d):
                bounds.insert(
                    1,
                    BoundSpec(
                        "avg_reads_le",
                        "4*log2(d)",
                        LogLinearBound(Fraction(4), d),
                        "partition code average reads, power-of-two dimension",
                    ),
                )
        return bounds
    if name == "composite":
        d = counter.dim
        layers = str(p.get("layers", "")).split(",")
        c = len(layers)
        return [
            _length_bound("2^d", 1 << d, "layered code length"),
            BoundSpec("worst_reads_le", "d", d, "layered code worst reads"),
            BoundSpec(
                "worst_writes_le", "layer count", c, "one write per advanced layer"
            ),
            BoundSpec("hamming_le", "layer count", c, "quasi-Gray property"),
        ]
    if name not in ("lazy", "spin", "doublespin", "wine"):
        raise UsageError(f"no bound catalog for counter {name!r}")
    n = int(p["n"])
    w = n.bit_length() - 1
    if name == "lazy":
        return [
            _length_bound("2^(n+1)-2", (1 << (n + 1)) - 2, "lazy counter length"),
            *_worst_pair("log2(n)+1", w + 1, "lazy counter"),
            BoundSpec(
                "avg_reads_le",
                "3",
                3,
                "lazy counter average-read claim (measured value is log2(n)+1)",
            ),
        ]
    if name == "spin":
        return [
            _length_bound(
                "(n+1)*(2^n-1)",
                (n + 1) * ((1 << n) - 1),
                "spin counter length, stated form",
                disputed=True,
            ),
            _length_bound(
                "(n+1)*2^n-2",
                (n + 1) * (1 << n) - 2,
                "spin counter length, derived form",
                disputed=True,
            ),
            *_worst_pair("log2(n)+2", w + 2, "spin counter"),
            BoundSpec("avg_reads_le", "4", 4, "spin counter average reads"),
        ]
    g = int(p["g"])
    if name == "doublespin":
        return [
            _length_bound(
                "n*2^n*2^g-(n-1)*2^n-2",
                n * (1 << n) * (1 << g) - (n - 1) * (1 << n) - 2,
                "double-spin length claim",
                disputed=True,
            ),
            *_worst_pair("g+log2(n)+1", g + w + 1, "double-spin"),
            BoundSpec(
                "efficiency_ge",
                "1-2^(2-g)",
                Fraction(1) - Fraction(1 << 2, 1 << g),
                "double-spin space efficiency",
            ),
        ]
    return [
        _length_bound(
            "n*2^n*2^g-(n+1)*2^n+n",
            n * (1 << n) * (1 << g) - (n + 1) * (1 << n) + n,
            "wine length claim",
            disputed=True,
        ),
        BoundSpec("worst_reads_le", "g+log2(n)+1", g + w + 1, "wine worst reads"),
        BoundSpec("worst_writes_le", "3", 3, "wine worst writes"),
        BoundSpec("hamming_le", "3", 3, "quasi-Gray property"),
        BoundSpec(
            "efficiency_ge",
            "1-2^(2-g)",
            Fraction(1) - Fraction(1 << 2, 1 << g),
            "wine space efficiency",
        ),
    ]


# the bound columns of table1, in the order table_bounds fills them
TABLE_COLUMNS = (
    "paper_bound_space_efficiency",
    "paper_bound_avg_reads",
    "paper_bound_worst_reads",
    "paper_bound_worst_writes",
)


def table_bounds(
    counter: CounterSpec, inner_avg: Optional[Fraction] = None
) -> Dict[str, str]:
    """The bound text table1 prints beside each measured metric, by column.

    Each cell comes from the last undisputed catalog entry of its kind.
    Space efficiency is ``efficiency_ge`` or else the exact length over
    2^dim; average reads fall back to the worst-read bound. Two claims lie
    outside the catalog: doublespin's O(1), and composite's two-layer
    average, which needs the inner code's measured average ``inner_avg``.
    """
    last = {b.kind: b for b in paper_bounds(counter) if not b.disputed}
    if "efficiency_ge" in last:
        efficiency = last["efficiency_ge"].value_decimal()
    else:
        length = last["length_exact"].value
        efficiency = decimal_str(Fraction(length, 1 << counter.dim))
    if counter.name == "composite":
        # 6*log2(d') + 2 + r/2^d' for outer layer dimension d': the outer
        # layer's own cost, the wrap test, and the rarely advanced inner
        # code (its measured average r divided by the outer cycle length)
        if inner_avg is None:
            raise UsageError("the composite average bound needs the inner average")
        outer = int(str(counter.params["layers"]).split(",")[-1])
        avg = LogLinearBound(
            Fraction(6), outer, Fraction(2) + inner_avg / (1 << outer)
        ).decimal()
    elif counter.name == "doublespin":
        avg = "O(1)"
    else:
        avg = last.get("avg_reads_le", last["worst_reads_le"]).value_decimal()
    worst = [last[kind].value_decimal() for kind in ("worst_reads_le", "worst_writes_le")]
    return dict(zip(TABLE_COLUMNS, (efficiency, avg, *worst)))
