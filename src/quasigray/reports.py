"""Deterministic CSV and JSON rendering of cycle metrics, plus the summary
table that reproduces the documented bound claims at desk scale."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import LogLinearBound
from .counters import make_counter
from .harness import CycleReport, decimal_str, enumerate_cycle, flatten_report
from .probes import UsageError

CSV_COLUMNS = [
    "counter",
    "dim",
    "params",
    "length",
    "closed",
    "distinct",
    "space_efficiency",
    "avg_reads",
    "worst_reads",
    "avg_writes",
    "worst_writes",
    "max_hamming",
]

TABLE1_DIMS = list(range(2, 11))
TABLE1_COMPOSITES = [((6, 3), "rpgc"), ((10, 3, 2), "rpgc")]
TABLE1_SPIN_CONFIGS = [(4, 1), (4, 2), (8, 1), (8, 2)]

_BOUND_COLUMNS = [
    "paper_bound_space_efficiency",
    "paper_bound_avg_reads",
    "paper_bound_worst_reads",
    "paper_bound_worst_writes",
]


def metrics_row(report: CycleReport) -> Dict[str, object]:
    """Like :func:`collect_metrics` but tolerates an unclosed report, so
    the CLI can still emit a row that records closed = false."""
    return flatten_report(report)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return str(value["decimal"])
    return str(value)


def _csv_field(text: str) -> str:
    """Minimal CSV quoting: a field holding a comma, a quote or a line break
    is quoted, with embedded quotes doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None) -> str:
    columns = columns or CSV_COLUMNS
    # a line that is one empty field would have to be written as ""
    if len(columns) < 2:
        raise UsageError(f"csv_text needs at least two columns, got {len(columns)}")
    lines = [columns] + [[_cell(row.get(col, "")) for col in columns] for row in rows]
    return "".join(",".join(map(_csv_field, line)) + "\n" for line in lines)


def json_text(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _bound_cells(
    name: str, dim: int, params: Dict[str, object], inner_avg: Optional[Fraction]
) -> Dict[str, str]:
    if name == "binary":
        return {
            "paper_bound_space_efficiency": "1",
            "paper_bound_avg_reads": decimal_str(
                Fraction(2) - Fraction(1, 1 << (dim - 1))
            ),
            "paper_bound_worst_reads": str(dim),
            "paper_bound_worst_writes": str(dim),
        }
    if name == "brgc":
        return {
            "paper_bound_space_efficiency": "1",
            "paper_bound_avg_reads": str(dim),
            "paper_bound_worst_reads": str(dim),
            "paper_bound_worst_writes": "1",
        }
    if name == "rpgc":
        return {
            "paper_bound_space_efficiency": "1",
            "paper_bound_avg_reads": LogLinearBound(Fraction(6), dim).decimal(),
            "paper_bound_worst_reads": str(dim),
            "paper_bound_worst_writes": "1",
        }
    if name == "composite":
        dims = [int(x) for x in str(params["layers"]).split(",")]
        outer = dims[-1]
        # per-step cost of the outer layer, the wrap test, and the rarely
        # advanced inner code (measured average divided by the outer length)
        if inner_avg is None:
            raise UsageError("composite bound cells need the inner average")
        avg_bound = LogLinearBound(
            Fraction(6), outer, Fraction(2) + inner_avg / (1 << outer)
        )
        return {
            "paper_bound_space_efficiency": "1",
            "paper_bound_avg_reads": avg_bound.decimal(),
            "paper_bound_worst_reads": str(sum(dims)),
            "paper_bound_worst_writes": str(len(dims)),
        }
    n = int(params["n"])
    g = int(params["g"])
    w = n.bit_length() - 1
    efficiency = decimal_str(Fraction(1) - Fraction(4, 1 << g))
    if name == "doublespin":
        return {
            "paper_bound_space_efficiency": efficiency,
            "paper_bound_avg_reads": "O(1)",
            "paper_bound_worst_reads": str(g + w + 1),
            "paper_bound_worst_writes": str(g + w + 1),
        }
    if name == "wine":
        return {
            "paper_bound_space_efficiency": efficiency,
            "paper_bound_avg_reads": str(g + w + 1),
            "paper_bound_worst_reads": str(g + w + 1),
            "paper_bound_worst_writes": "3",
        }
    raise UsageError(f"no bound cells for counter {name!r}")


def build_table1_rows(
    cap: Optional[int] = None,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Rows for the desk-scale summary table: measured metrics side by side
    with the documented bounds for each counter family."""
    columns = CSV_COLUMNS + _BOUND_COLUMNS
    rows: List[Dict[str, object]] = []

    def add(counter, inner_avg: Optional[Fraction] = None) -> CycleReport:
        report = enumerate_cycle(counter, cap)
        row = metrics_row(report)
        row.update(_bound_cells(counter.name, counter.dim, counter.params, inner_avg))
        rows.append(row)
        return report

    for name in ("binary", "brgc", "rpgc"):
        for d in TABLE1_DIMS:
            add(make_counter(name, dim=d))
    for dims, inner_kind in TABLE1_COMPOSITES:
        inner = make_counter("composite", layers=dims[:-1], inner=inner_kind)
        inner_report = enumerate_cycle(inner, cap)
        add(
            make_counter("composite", layers=dims, inner=inner_kind),
            inner_avg=inner_report.avg_reads,
        )
    for n, g in TABLE1_SPIN_CONFIGS:
        add(make_counter("doublespin", n=n, g=g))
    for n, g in TABLE1_SPIN_CONFIGS:
        add(make_counter("wine", n=n, g=g))
    return columns, rows
