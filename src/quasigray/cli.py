"""Command-line front end.

Verbs: ``list`` available counters, ``cycle`` one enumeration, ``verify``
the quasi-Gray property plus the documented bounds, ``bench`` a parameter
sweep, ``table1`` the desk-scale summary table. Exit codes: 0 success or
pass, 1 verification/bound failure, 2 usage or parameter error.

Outputs are deterministic: identical invocations produce byte-identical
files. ``--cap`` sets the enumeration cap, 2^26 steps by default; no
environment variable changes any output. The argparse tree is built once
per process, on the first ``run_cli`` call; each call parses with a copy.
"""

from __future__ import annotations

import argparse
import copy
import functools
import gc
import itertools
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from .bounds import check_bounds, paper_bounds
from .composite import GRAY_STEPS, PreconditionError
from .counters import COUNTERS, make_counter, select_form
from .harness import DEFAULT_CYCLE_CAP, collect_metrics, enumerate_cycle, verify_quasi_gray
from .probes import MAX_DIM, UsageError
from .reports import build_table1_rows, csv_text, json_chunks, json_rows_chunks, summary_text


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
            # no value, and no count of values, may pass the dimension bound
            if max(hi_i, len(out) + hi_i - lo_i + 1) > MAX_DIM:
                raise UsageError(f"range {part!r} for {flag} goes past {MAX_DIM}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise UsageError(f"bad value {part!r} for {flag}") from exc
    if not out:
        raise UsageError(f"{flag} needs at least one value")
    return out


@functools.lru_cache(maxsize=None)
def _built_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasigray",
        description="Generate, verify and benchmark quasi-Gray code counters "
        "under bit-probe cost accounting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    listing = sub.add_parser("list", help="print available counters and their parameters")
    listing.set_defaults(run=_cmd_list)

    kinds = sorted(GRAY_STEPS)

    def add_selector(p: argparse.ArgumentParser) -> None:
        p.add_argument("--counter", required=True, choices=sorted(COUNTERS))
        p.add_argument("--dim", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--g", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--layers", help="comma-separated layer dims, innermost first")
        p.add_argument("--inner", choices=kinds)
        p.add_argument("--encoding", choices=kinds)
        p.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP, help="enumeration step cap")

    cycle = sub.add_parser("cycle", help="enumerate one counter and emit its report")
    cycle.set_defaults(run=_cmd_cycle)
    add_selector(cycle)
    cycle.add_argument("--emit", choices=["none", "csv", "json"], default="none")
    cycle.add_argument("--output", help="write the report here instead of stdout")

    verify = sub.add_parser(
        "verify", help="check the quasi-Gray property and the documented bounds"
    )
    verify.set_defaults(run=_cmd_verify)
    add_selector(verify)

    bench = sub.add_parser("bench", help="sweep a parameter grid, one row per config")
    bench.set_defaults(run=_cmd_bench)
    bench.add_argument("--counter", required=True, choices=sorted(COUNTERS))
    bench.add_argument("--dims", help="dims to sweep, e.g. 2-10 or 2,4,8")
    bench.add_argument("--ns", help="n values to sweep, e.g. 2,4,8,16")
    bench.add_argument("--gs", help="g values to sweep, e.g. 1-3")
    bench.add_argument("--layers", help="single layered config, innermost first")
    bench.add_argument("--inner", choices=kinds)
    bench.add_argument("--encoding", choices=kinds)
    bench.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
    bench.add_argument("--emit", choices=["csv", "json"], default="csv")
    bench.add_argument("--output")

    table1 = sub.add_parser(
        "table1", help="measured metrics next to the documented bounds, small dims"
    )
    table1.set_defaults(run=_cmd_table1)
    table1.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
    table1.add_argument("--emit", choices=["csv", "json"], default="csv")
    table1.add_argument("--output")

    gc.collect()  # the help formatters the build threw away
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A shallow copy of the one parser: an attribute set on the copy stays
    there, while its arguments and subparsers are the shared ones."""
    return copy.copy(_built_parser())


def _selector_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    layers = None
    if args.layers:
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
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    return args.cap


def _write_out(pieces: Iterable[str], output: Optional[str]) -> None:
    """Write the pieces of one text, in order, to ``output`` or stdout."""
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _write_rows(
    args: argparse.Namespace,
    rows: List[Dict[str, object]],
    columns: Optional[List[str]] = None,
) -> None:
    pieces = json_rows_chunks(rows) if args.emit == "json" else [csv_text(rows, columns)]
    _write_out(pieces, args.output)


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(COUNTERS):
        print(f"{name:<12} {COUNTERS[name][0]}")
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    counter = make_counter(args.counter, **_selector_kwargs(args))
    report = enumerate_cycle(counter, _cap(args))
    row = collect_metrics(report)
    if args.emit == "json":
        _write_out(json_chunks(row), args.output)
    elif args.emit == "csv":
        _write_out([csv_text([row])], args.output)
    else:
        _write_out([summary_text(row)], args.output)
    if not report.closed:
        print(f"warning: cycle did not close within {args.cap} steps", file=sys.stderr)
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


# bench sweeps these make_counter parameters, each through its plural flag
SWEPT = ("dim", "n", "g")


def _bench_configs(args: argparse.Namespace) -> List[Dict[str, object]]:
    """One make_counter keyword set per point of the grid; only the
    counter's first form can be swept."""
    name = args.counter
    params = dict(dim=args.dims, n=args.ns, g=args.gs, layers=args.layers)
    params.update(inner=args.inner, encoding=args.encoding)
    keys, _ = select_form(COUNTERS[name][1][:1], params, f"bench --counter {name}", SWEPT)
    axes = []
    for key in keys:
        if key in SWEPT:
            axes.append(sorted(_parse_int_list(params[key], f"--{key}s")))
        elif key == "layers":
            axes.append([_parse_int_list(params[key], "--layers")])
        else:
            axes.append([params[key]])
    return [dict(zip(keys, point)) for point in itertools.product(*axes)]


def _cmd_bench(args: argparse.Namespace) -> int:
    cap = _cap(args)
    rows = []
    for cfg in _bench_configs(args):
        counter = make_counter(args.counter, **cfg)
        rows.append(collect_metrics(enumerate_cycle(counter, cap)))
    _write_rows(args, rows)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    columns, rows = build_table1_rows(_cap(args))
    _write_rows(args, rows, columns)
    return 0


def run_cli(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except (UsageError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
