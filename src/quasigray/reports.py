"""Deterministic CSV and JSON rendering of cycle metrics, plus the summary
table that reproduces the documented bound claims at desk scale."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import TABLE_COLUMNS, table_bounds
from .counters import make_counter
from .harness import enumerate_cycle, flatten_report
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


def summary_text(row: Dict[str, object]) -> str:
    """One line of ``column=value`` pairs, holding the cells of csv_text."""
    return " ".join(f"{col}={_cell(row[col])}" for col in CSV_COLUMNS) + "\n"


def build_table1_rows(
    cap: Optional[int] = None,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Rows for the desk-scale summary table: measured metrics side by side
    with the documented bounds for each counter family."""
    columns = CSV_COLUMNS + list(TABLE_COLUMNS)
    rows: List[Dict[str, object]] = []

    def add(counter, inner_avg: Optional[Fraction] = None) -> None:
        row = flatten_report(enumerate_cycle(counter, cap))
        row.update(table_bounds(counter, inner_avg))
        rows.append(row)

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
