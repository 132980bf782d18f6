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


def paper_bounds(counter: CounterSpec) -> List[BoundSpec]:
    """The documented claims for one counter configuration, in catalog order.

    Each family states its shared claims once. A space-optimal code
    (binary, brgc, rpgc, composite) has length 2^d and reads at most d bits
    a step; a lazy-family counter (lazy, spin, doublespin, wine) reads at
    most g + log2(n) + 1. A counter adds its own claims and the formula of
    its write cap, whose value is always its ``claimed_c``. A write-cap
    formula other than the read cap's claims a Gray (formula 1) or
    quasi-Gray code, which also caps each step's Hamming distance at c.
    """
    name = counter.name
    # entries are BoundSpec's arguments; head precedes the caps, tail follows
    if name in ("binary", "brgc", "rpgc", "composite"):
        d = counter.dim
        reads, read_value, tail = "d", d, []
        if name == "binary":
            family, writes, write_source = "binary counter", "d", "binary counter worst writes"
            averages = [("2 - 2^(1-d)", 2 - Fraction(2, 1 << d), f"{family} average")]
        elif name == "brgc":
            family, writes, write_source = "reflected code", "1", "reflected code single write"
            averages = [("d", d, f"{family} average reads")]
        elif name == "rpgc":
            family, writes, write_source = "partition code", "1", "partition code single write"
            averages = [
                (f"{k}*log2(d)", LogLinearBound(Fraction(k), d), f"{family} average reads{note}")
                for k, note in ((4, ", power-of-two dimension"), (6, ""))
                if d >= 2 and (k == 6 or is_power_of_two(d))
            ]
        else:
            family, averages = "layered code", []
            writes, write_source = "layer count", "one write per advanced layer"
        head = [("length_exact", "2^d", 1 << d, f"{family} length")]
        head += [("avg_reads_le", *average) for average in averages]
    elif name in ("lazy", "spin", "doublespin", "wine"):
        n, g = int(counter.params["n"]), int(counter.params["g"])
        log_n, two_n = n.bit_length() - 1, 1 << n
        reads, read_value = "g+log2(n)+1", g + log_n + 1
        if name == "lazy":
            family, reads = "lazy counter", "log2(n)+1"
            lengths = [("2^(n+1)-2", 2 * two_n - 2, f"{family} length")]
            claim = f"{family} average-read claim (measured value is {reads})"
            tail = [("avg_reads_le", "3", 3, claim)]
        elif name == "spin":
            family, reads = "spin counter", "log2(n)+2"
            lengths = [
                ("(n+1)*(2^n-1)", (n + 1) * (two_n - 1), f"{family} length, stated form"),
                ("(n+1)*2^n-2", (n + 1) * two_n - 2, f"{family} length, derived form"),
            ]
            tail = [("avg_reads_le", "4", 4, f"{family} average reads")]
        else:
            if name == "doublespin":
                family, length = "double-spin", n * two_n * (1 << g) - (n - 1) * two_n - 2
                lengths = [("n*2^n*2^g-(n-1)*2^n-2", length, f"{family} length claim")]
            else:
                family, length = "wine", n * two_n * (1 << g) - (n + 1) * two_n + n
                lengths = [("n*2^n*2^g-(n+1)*2^n+n", length, f"{family} length claim")]
            efficiency = 1 - Fraction(4, 1 << g)
            tail = [("efficiency_ge", "1-2^(2-g)", efficiency, f"{family} space efficiency")]
        # enumeration contradicts every length claim but the lazy counter's
        head = [("length_exact", *length, name != "lazy") for length in lengths]
        writes, write_source = "3" if name == "wine" else reads, f"{family} worst writes"
    else:
        raise UsageError(f"no bound catalog for counter {name!r}")
    c = counter.claimed_c
    caps = [
        ("worst_reads_le", reads, read_value, f"{family} worst reads"),
        ("worst_writes_le", writes, c, write_source),
    ]
    if writes != reads:
        gray = "Gray property" if writes == "1" else "quasi-Gray property"
        caps.append(("hamming_le", writes, c, gray))
    return [BoundSpec(*entry) for entry in head + caps + tail]


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
    2^dim, and a counter with neither undisputed, such as spin, is refused;
    average reads fall back to the worst-read bound. Two claims lie
    outside the catalog: doublespin's O(1), and composite's two-layer
    average, which needs the inner code's measured average ``inner_avg``.
    """
    last = {b.kind: b for b in paper_bounds(counter) if not b.disputed}
    if "efficiency_ge" in last:
        efficiency = last["efficiency_ge"].value_decimal()
    elif "length_exact" in last:
        efficiency = decimal_str(Fraction(last["length_exact"].value, 1 << counter.dim))
    else:
        raise UsageError(f"no undisputed length or efficiency claim for counter {counter.name!r}")
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
