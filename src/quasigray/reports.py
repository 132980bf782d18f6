"""Deterministic CSV and JSON rendering of cycle metrics, plus the summary
table that reproduces the documented bound claims at desk scale."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .bounds import TABLE_COLUMNS, table_bounds
from .counters import make_counter
from .harness import CSV_COLUMNS, collect_metrics, enumerate_cycle
from .probes import UsageError

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


def csv_text(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    columns = columns or CSV_COLUMNS
    # a line that is one empty field would have to be written as ""
    if len(columns) < 2:
        raise UsageError(f"csv_text needs at least two columns, got {len(columns)}")
    # a row's cells are made as its line is, so no table's cells are all held at once
    cells = ([_cell(row.get(col, "")) for col in columns] for row in rows)
    lines = itertools.chain([columns], cells)
    return "".join(",".join(map(_csv_field, line)) + "\n" for line in lines)


def json_chunks(payload: object, default: Optional[Callable] = None) -> Iterator[str]:
    """The text of ``json_text`` in pieces of up to 128 encoder tokens.
    ``json.dumps`` with an indent keeps every token as a string of its own
    until it joins them, several times the size of the text; a caller that
    writes the pieces as they come holds one piece at a time. ``default``
    is the encoder's hook for an object JSON has no form for."""
    tokens = json.JSONEncoder(indent=2, default=default).iterencode(payload)
    while piece := "".join(itertools.islice(tokens, 128)):
        yield piece
    yield "\n"


def json_rows_chunks(rows: List[Dict[str, object]]) -> Iterator[str]:
    """The text of ``json_text(rows)``, emptying ``rows`` as it is written:
    the encoder meets a placeholder for each row and only then takes the row
    from the list, so a row is freed once written and a table is never held
    beside all of its text."""
    rows.reverse()
    return json_chunks([object()] * len(rows), lambda _: rows.pop())


def json_text(payload: object) -> str:
    """``json.dumps(payload, indent=2)`` and a line break."""
    return "".join(json_chunks(payload))


def summary_text(row: Dict[str, object]) -> str:
    """One line of ``column=value`` pairs, holding the cells of csv_text."""
    return " ".join(f"{col}={_cell(row[col])}" for col in CSV_COLUMNS) + "\n"


def build_table1_rows(
    cap: Optional[int] = None,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Rows for the desk-scale summary table: measured metrics side by side
    with the documented bounds for each counter family."""
    columns = [*CSV_COLUMNS, *TABLE_COLUMNS]
    rows: List[Dict[str, object]] = []

    def add(counter, inner_avg: Optional[Fraction] = None) -> None:
        row = collect_metrics(enumerate_cycle(counter, cap))
        row.update(table_bounds(counter, inner_avg))
        rows.append(row)

    for name in ("binary", "brgc", "rpgc"):
        for d in TABLE1_DIMS:
            add(make_counter(name, dim=d))
    for dims, inner_kind in TABLE1_COMPOSITES:
        # a bound cell is a claim about the whole inner code, so its average
        # is never cut short by the cap; the inner plans close within 8,192 steps
        inner = make_counter("composite", layers=dims[:-1], inner=inner_kind)
        add(
            make_counter("composite", layers=dims, inner=inner_kind),
            inner_avg=enumerate_cycle(inner).avg_reads,
        )
    for n, g in TABLE1_SPIN_CONFIGS:
        add(make_counter("doublespin", n=n, g=g))
    for n, g in TABLE1_SPIN_CONFIGS:
        add(make_counter("wine", n=n, g=g))
    return columns, rows
