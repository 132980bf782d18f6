"""Command-line front end.

Verbs: ``list`` available counters, ``cycle`` one enumeration, ``verify``
the quasi-Gray property plus the documented bounds, ``bench`` a parameter
sweep, ``table1`` the desk-scale summary table. Exit codes: 0 success or
pass, 1 verification/bound failure, 2 usage or parameter error.

Outputs are deterministic: identical invocations produce byte-identical
files. QUASIGRAY_CYCLE_CAP overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .bounds import check_bounds, paper_bounds
from .composite import PreconditionError
from .counters import COUNTER_SCHEMAS, make_counter
from .harness import cycle_cap_from_env, enumerate_cycle, verify_quasi_gray
from .probes import UsageError
from .reports import CSV_COLUMNS, build_table1_rows, csv_text, json_text, metrics_row


def _parse_int_list(text: str, flag: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise UsageError(f"bad range {part!r} for {flag}") from exc
            if hi_i < lo_i:
                raise UsageError(f"empty range {part!r} for {flag}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise UsageError(f"bad value {part!r} for {flag}") from exc
    if not out:
        raise UsageError(f"{flag} needs at least one value")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasigray",
        description="Generate, verify and benchmark quasi-Gray code counters "
        "under bit-probe cost accounting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="print available counters and their parameters")

    def add_selector(p: argparse.ArgumentParser) -> None:
        p.add_argument("--counter", required=True, choices=sorted(COUNTER_SCHEMAS))
        p.add_argument("--dim", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--g", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--layers", help="comma-separated layer dims, innermost first")
        p.add_argument("--inner", choices=["rpgc", "brgc"])
        p.add_argument("--encoding", choices=["brgc", "rpgc"])
        p.add_argument("--cap", type=int, help="enumeration step cap")

    cycle = sub.add_parser("cycle", help="enumerate one counter and emit its report")
    add_selector(cycle)
    cycle.add_argument("--emit", choices=["none", "csv", "json"], default="none")
    cycle.add_argument("--output", help="write the report here instead of stdout")

    verify = sub.add_parser(
        "verify", help="check the quasi-Gray property and the documented bounds"
    )
    add_selector(verify)

    bench = sub.add_parser("bench", help="sweep a parameter grid, one row per config")
    bench.add_argument("--counter", required=True, choices=sorted(COUNTER_SCHEMAS))
    bench.add_argument("--dims", help="dims to sweep, e.g. 2-10 or 2,4,8")
    bench.add_argument("--ns", help="n values to sweep, e.g. 2,4,8,16")
    bench.add_argument("--gs", help="g values to sweep, e.g. 1-3")
    bench.add_argument("--layers", help="single layered config, innermost first")
    bench.add_argument("--inner", choices=["rpgc", "brgc"])
    bench.add_argument("--encoding", choices=["brgc", "rpgc"])
    bench.add_argument("--cap", type=int)
    bench.add_argument("--emit", choices=["csv", "json"], default="csv")
    bench.add_argument("--output")

    table1 = sub.add_parser(
        "table1", help="measured metrics next to the documented bounds, small dims"
    )
    table1.add_argument("--cap", type=int)
    table1.add_argument("--emit", choices=["csv", "json"], default="csv")
    table1.add_argument("--output")

    return parser


def _selector_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    layers = None
    if getattr(args, "layers", None):
        layers = _parse_int_list(args.layers, "--layers")
    return dict(
        dim=args.dim,
        n=args.n,
        g=args.g,
        c=args.c,
        layers=layers,
        inner=args.inner,
        encoding=args.encoding,
    )


def _cap(args: argparse.Namespace) -> int:
    if getattr(args, "cap", None) is not None:
        if args.cap < 1:
            raise UsageError(f"--cap must be >= 1, got {args.cap}")
        return args.cap
    return cycle_cap_from_env()


def _write_out(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary_line(row: Dict[str, object]) -> str:
    parts = []
    for col in CSV_COLUMNS:
        value = row[col]
        if isinstance(value, dict):
            value = value["decimal"]
        elif isinstance(value, bool):
            value = "true" if value else "false"
        parts.append(f"{col}={value}")
    return " ".join(parts) + "\n"


def _cmd_list() -> int:
    for name in sorted(COUNTER_SCHEMAS):
        print(f"{name:<12} {COUNTER_SCHEMAS[name]}")
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    counter = make_counter(args.counter, **_selector_kwargs(args))
    report = enumerate_cycle(counter, _cap(args))
    row = metrics_row(report)
    if args.emit == "json":
        _write_out(json_text(row), args.output)
    elif args.emit == "csv":
        _write_out(csv_text([row]), args.output)
    else:
        _write_out(_summary_line(row), args.output)
    if not report.closed:
        print(
            f"warning: cycle did not close within {_cap(args)} steps", file=sys.stderr
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    counter = make_counter(args.counter, **_selector_kwargs(args))
    report = enumerate_cycle(counter, _cap(args))
    if not report.closed or not report.distinct:
        print(
            f"verify failed: cycle closed={report.closed} distinct={report.distinct}",
            file=sys.stderr,
        )
        return 1
    check = verify_quasi_gray(report, counter.claimed_c)
    print(
        f"quasi-gray c={counter.claimed_c}: "
        f"{'PASS' if check.passed else 'FAIL ' + check.describe()}"
    )
    failures = 0 if check.passed else 1
    for result in check_bounds(report, paper_bounds(counter)):
        print(result.describe())
        if result.passed is False:
            failures += 1
    if failures:
        print(f"verify failed: {failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _bench_configs(args: argparse.Namespace) -> List[Dict[str, object]]:
    name = args.counter
    if name in ("binary", "brgc", "rpgc"):
        if not args.dims:
            raise UsageError(f"bench --counter {name} needs --dims")
        return [{"dim": d} for d in sorted(_parse_int_list(args.dims, "--dims"))]
    if name == "composite":
        if not args.layers:
            raise UsageError("bench --counter composite needs --layers")
        return [
            {
                "layers": _parse_int_list(args.layers, "--layers"),
                "inner": args.inner,
            }
        ]
    if not args.ns:
        raise UsageError(f"bench --counter {name} needs --ns")
    ns = sorted(_parse_int_list(args.ns, "--ns"))
    if name in ("lazy", "spin"):
        return [{"n": n} for n in ns]
    if not args.gs:
        raise UsageError(f"bench --counter {name} needs --gs")
    gs = sorted(_parse_int_list(args.gs, "--gs"))
    configs = []
    for n in ns:
        for g in gs:
            cfg: Dict[str, object] = {"n": n, "g": g}
            if name == "wine" and args.encoding:
                cfg["encoding"] = args.encoding
            configs.append(cfg)
    return configs


def _cmd_bench(args: argparse.Namespace) -> int:
    cap = _cap(args)
    rows = []
    for cfg in _bench_configs(args):
        counter = make_counter(args.counter, **cfg)
        rows.append(metrics_row(enumerate_cycle(counter, cap)))
    if args.emit == "json":
        _write_out(json_text(rows), args.output)
    else:
        _write_out(csv_text(rows), args.output)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    columns, rows = build_table1_rows(_cap(args))
    if args.emit == "json":
        _write_out(json_text(rows), args.output)
    else:
        _write_out(csv_text(rows, columns), args.output)
    return 0


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.verb == "list":
            return _cmd_list()
        if args.verb == "cycle":
            return _cmd_cycle(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "bench":
            return _cmd_bench(args)
        if args.verb == "table1":
            return _cmd_table1(args)
    except (UsageError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled verb {args.verb!r}")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
