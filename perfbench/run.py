"""quasigray benchmark: DAT-charged cycle enumeration on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rpgc-deep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones listed in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, derived from spans recorded
around calls into the package's public functions (``src/`` is imported,
never changed) and written to ``perfbench/out/``.

A run repeats whole passes over its workload until ``--seconds`` have
elapsed; a traced run alternates untraced and traced passes, so both see
the same host conditions. Every operation's output is compared with
``golden.json`` and with closed-form oracles; a mismatch or an exception
is a failed operation, and the run goes on. Timings use each operation's
fastest pass, because on a shared host slow stretches last seconds and
only the fastest repetitions agree from run to run. ``config_p50_ms`` and
``config_p90_ms`` are Harrell-Davis estimates over the configurations'
fastest times.

``setup_s`` is the median of fresh interpreters that each import the
package, standard library modules included, and build the workload's
counters. ``peak_alloc_kib`` is the largest tracemalloc peak of one
operation, taken in one more pass after the timed ones. ``trace.overhead_pct``
is the number of spans inside the traced operations times the measured cost
of one span, over the operations' untraced time: the direct difference
of traced and untraced passes is printed too, but it is smaller than the
timing noise of a shared host.

``compare_with_log2`` on near-ties is kept out of every workload: one such
comparison takes 8-19 s, and 126797/80000 against log2(3) raises
RuntimeError after about 17 s. Only the package's own tests reach it; the
catalog bounds that ``verify`` checks certify in well under a millisecond.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import importlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
SPAN_DIR = HERE / "out"

# setup_s is the median of this many fresh interpreters, each timing its
# import of the package and its build of every counter; they are spread over
# the run, because on a shared host slow stretches last seconds
SETUP_REPEATS = 21
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import quasigray, quasigray.cli, quasigray.reports
from dataclasses import replace
for spec in sys.argv[2:]:
    name, *pairs = spec.split()
    kwargs = dict(pair.split("=") for pair in pairs)
    rank = kwargs.pop("rank", None)
    for key, value in kwargs.items():
        if key == "layers":
            kwargs[key] = tuple(map(int, value.split(",")))
        elif value.isdigit():
            kwargs[key] = int(value)
    counter = quasigray.make_counter(name, **kwargs)
    if rank is not None:
        counter = replace(counter, initial=quasigray.BitState.from_int(int(rank), counter.dim))
print(time.perf_counter() - t0, quasigray.__file__)
"""
SPACE_OPTIMAL = ("binary", "brgc", "rpgc", "composite")
# bare-loop span of each counter family; its metric is the span name + "_ns"
STEP_SPANS = {
    "binary": "harness.binary_step",
    "brgc": "brgc.step",
    "rpgc": "rpgc.step",
    "composite": "composite.step",
    "lazy": "lazy.step",
    "spin": "lazy.step",
    "doublespin": "lazy.step",
    "wine": "lazy.step",
}
# per-layer metrics reported as self milliseconds per operation, by span name
LAYER_MS = {
    "counters.make": "counters.make_ms",
    "harness.verify": "harness.verify_ms",
    "bounds.check": "bounds.check_ms",
    "logmath.certify": "logmath.certify_ms",
    "reports.render": "reports.render_ms",
    "reports.table1": "reports.table1_ms",
    "cli.parse": "cli.parse_ms",
}

# public calls traced as (module, function, span); a function a later version
# drops is skipped, and its share lands in the caller's span
LAYER_CALLS = (
    ("counters", "make_counter", "counters.make"),
    ("harness", "verify_quasi_gray", "harness.verify"),
    ("bounds", "paper_bounds", "bounds.check"),
    ("bounds", "check_bounds", "bounds.check"),
    ("harness", "collect_metrics", "reports.render"),
    ("reports", "metrics_row", "reports.render"),
    ("reports", "csv_text", "reports.render"),
    ("reports", "json_text", "reports.render"),
    ("reports", "build_table1_rows", "reports.table1"),
    ("cli", "run_cli", "cli.run"),
)


class ReconcileError(RuntimeError):
    """The bare step loop did not retrace the enumerated cycle."""


@dataclasses.dataclass(frozen=True)
class Config:
    """One counter configuration, spelled as the CLI selector spells it."""

    counter: str
    dim: Optional[int] = None
    n: Optional[int] = None
    g: Optional[int] = None
    layers: Optional[Tuple[int, ...]] = None
    inner: Optional[str] = None
    encoding: Optional[str] = None

    def argv(self) -> List[str]:
        out = ["--counter", self.counter]
        for flag in ("dim", "n", "g", "inner", "encoding"):
            value = getattr(self, flag)
            if value is not None:
                out += [f"--{flag}", str(value)]
        if self.layers:
            out += ["--layers", ",".join(map(str, self.layers))]
        return out

    @property
    def key(self) -> str:
        return " ".join(self.argv())

    def kwargs(self) -> Dict[str, object]:
        fields = dataclasses.asdict(self)
        del fields["counter"]
        return {k: v for k, v in fields.items() if v is not None}

    @property
    def space_dim(self) -> int:
        return sum(self.layers) if self.layers else self.dim


@dataclasses.dataclass(frozen=True)
class Workload:
    configs: Tuple[Config, ...]
    # through run_cli (verify, cycle --emit, table1) rather than the API
    via_cli: bool = False


def _grid() -> Tuple[Config, ...]:
    grid = [Config(c, dim=d) for c in ("binary", "brgc", "rpgc") for d in range(2, 13)]
    grid += [Config(c, n=n) for c in ("lazy", "spin") for n in (2, 4, 8)]
    # doublespin and wine stop at g=1 for n=8: with g=2-3 they are 6-15 k
    # steps, 0.05-0.2 s an operation through verify and cycle, and would fill
    # half of each pass, so every configuration would be timed a third as
    # often in a run and the sweep would be mostly enumeration rather than
    # parsing, checking and rendering
    for n in (2, 4, 8):
        for g in (1, 2, 3) if n < 8 else (1,):
            grid.append(Config("doublespin", n=n, g=g))
            grid += [Config("wine", n=n, g=g, encoding=e) for e in ("brgc", "rpgc")]
    grid += [
        Config("composite", layers=(6, 3)),
        Config("composite", layers=(7, 3, 2)),
        Config("composite", layers=(4, 4), inner="brgc"),
        Config("composite", layers=(2, 3, 3, 4)),
    ]
    return tuple(grid)


GRID = _grid()
# Every operation takes under 0.1 s, so a 30 s run repeats each one
# hundreds of times: on a shared host, fast stretches are short, and only
# short operations land whole inside one (at 2^16 steps, 0.3 s operations,
# run medians drifted 12-25% within an hour). rpgc d=13 reads 9.4 bits a
# step, more than d=14 (8.4) or d=16 (7.5).
WORKLOADS = {
    "rpgc-deep": Workload((Config("rpgc", dim=13), Config("composite", layers=(6, 4, 2)))),
    "cheap-steps": Workload(
        (
            Config("wine", n=8, g=2, encoding="brgc"),
            Config("doublespin", n=8, g=2),
            Config("binary", dim=14),
        )
    ),
    "brgc-unique": Workload((Config("brgc", dim=14),)),
    "verify-sweep": Workload(GRID, via_cli=True),
}
# same shapes at desk-test size; every configuration is in GRID, so the
# golden file covers it
TINY = {
    "rpgc-deep": Workload((Config("rpgc", dim=8), Config("composite", layers=(6, 3)))),
    "cheap-steps": Workload(
        (
            Config("wine", n=4, g=1, encoding="brgc"),
            Config("doublespin", n=4, g=1),
            Config("binary", dim=8),
        )
    ),
    "brgc-unique": Workload((Config("brgc", dim=8),)),
    "verify-sweep": Workload(GRID[::8] + (Config("composite", layers=(6, 3)),), via_cli=True),
}


# ----------------------------------------------------------------- oracles


def closed_form_length(cfg: Config) -> int:
    """Cycle lengths from the README table."""
    if cfg.counter in SPACE_OPTIMAL:
        return 1 << cfg.space_dim
    n = cfg.n
    if cfg.counter == "lazy":
        return (1 << (n + 1)) - 2
    if cfg.counter == "spin":
        return (n + 2) * (1 << n) - 2
    spin_states = n * (1 << n) * ((1 << cfg.g) - 1)
    if cfg.counter == "doublespin":
        return spin_states + (1 << (n + 1)) - 2
    return spin_states + (1 << n) + n - 1


def exact_avg_reads(cfg: Config) -> Optional[Fraction]:
    """Average reads the README marks exact; lazy's is the measured
    log n + 1, not the catalog's disputed claim of 3."""
    if cfg.counter == "binary":
        return 2 - Fraction(1, 1 << (cfg.dim - 1))
    if cfg.counter == "brgc":
        return Fraction(cfg.dim)
    if cfg.counter == "lazy":
        return Fraction(cfg.n.bit_length())
    return None


def oracle_problems(cfg: Config, length: int, avg_reads: Fraction, exact: bool) -> List[str]:
    """``exact`` is False when avg_reads was parsed from a 10-digit decimal."""
    problems = []
    if length != closed_form_length(cfg):
        problems.append(f"length {length} != closed form {closed_form_length(cfg)}")
    want = exact_avg_reads(cfg)
    if want is not None:
        tolerance = 0 if exact else want * Fraction(1, 10**9)
        if abs(avg_reads - want) > tolerance:
            problems.append(f"avg_reads {avg_reads} != {want}")
    return problems


def emitted_row(text: str, fmt: str) -> Tuple[int, Fraction, bool]:
    if fmt == "json":
        row = json.loads(text)
        avg = row["avg_reads"]
        return row["length"], Fraction(avg["num"], avg["den"]), True
    row = next(csv.DictReader(io.StringIO(text)))
    return int(row["length"]), Fraction(Decimal(row["avg_reads"])), False


# ----------------------------------------------------------------- program


def import_program():
    """Import quasigray from the checkout's src/ and return it."""
    qg = importlib.import_module("quasigray")
    for sub in ("cli", "reports"):
        importlib.import_module(f"quasigray.{sub}")
    if Path(qg.__file__).resolve().parent != SRC / "quasigray":
        raise ImportError(f"quasigray imported from {qg.__file__}, not from {SRC}")
    return qg


def build_counter(qg, cfg: Config, rank: Optional[int]):
    counter = qg.counters.make_counter(cfg.counter, **cfg.kwargs())
    if rank is None:
        return counter
    return dataclasses.replace(counter, initial=qg.BitState.from_int(rank, counter.dim))


def call_cli(qg, argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qg.cli.run_cli(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def patched(replacements: Dict[object, object]):
    """Swap each original function for its wrapper in every quasigray module
    that holds it, and put the originals back afterwards."""
    by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
    saved = []
    for name, mod in list(sys.modules.items()):
        if name != "quasigray" and not name.startswith("quasigray."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


class Stopwatch:
    """Time and steps spent inside enumerate_cycle."""

    def __init__(self):
        self.ns = 0
        self.steps = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            report = fn(*args, **kwargs)
            self.ns += time.perf_counter_ns() - t0
            self.steps += report.length
            return report

        return timed


# ----------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent, config, count]``;
    ``parent`` indexes ``spans`` (-1 for a root) and ``config`` is shared by
    every span of one operation."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.config: Optional[str] = None
        self.last_report = None
        # filled by the bare-loop split: (total reads, total writes) per
        # configuration, and the largest computed per-report footprint
        self.probes: Dict[str, Tuple[int, int]] = {}
        self.report_bytes = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.config, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return call

    def wrap_enumerate(self, fn):
        def call(*args, **kwargs):
            with self.span("harness.enumerate") as rec:
                report = fn(*args, **kwargs)
                rec[5] = report.length
            self.last_report = report
            return report

        return call

    @contextlib.contextmanager
    def installed(self, qg):
        """Trace the public calls of every layer for the duration."""
        h, b = qg.harness, qg.bounds
        build_parser = qg.cli.build_parser

        def traced_build_parser():
            with self.span("cli.parse"):
                parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        replacements = {
            h.enumerate_cycle: self.wrap_enumerate(h.enumerate_cycle),
            build_parser: traced_build_parser,
        }
        for module, name, span in LAYER_CALLS:
            fn = getattr(getattr(qg, module), name, None)
            if fn is not None:
                replacements[fn] = self.wrap(span, fn)
        admits = b.LogLinearBound.admits
        b.LogLinearBound.admits = self.wrap("logmath.certify", admits)
        try:
            with patched(replacements):
                yield
        finally:
            b.LogLinearBound.admits = admits

    def totals(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per span name: self ns and span count."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_ns, calls

    def fastest(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """Per (span name, config): the shortest duration and its count."""
        best: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for name, start, end, _, config, count in self.spans:
            if (name, config) not in best or end - start < best[name, config][0]:
                best[name, config] = (end - start, count)
        return best


def span_cost_ns(calls: int = 5000, repeats: int = 5) -> float:
    """What one span adds to a call: a traced no-op minus a plain one, each
    timed as the fastest of ``repeats`` loops."""
    tracer = Tracer()

    def noop():
        return None

    def loop(fn) -> int:
        tracer.spans.clear()
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - t0

    traced_ns = min(loop(tracer.wrap("calibrate", noop)) for _ in range(repeats))
    plain_ns = min(loop(noop) for _ in range(repeats))
    return max(traced_ns - plain_ns, 0) / calls


def tracing_overhead_pct(runner, tracer: Tracer) -> float:
    """Time the spans add to the traced operations, as a share of the same
    operations untraced: spans recorded inside operations times the cost of
    one span, over the operations' fastest untraced times. The direct
    difference of fastest traced and untraced passes is printed as well, but
    on a shared host it is within timing noise, and can even read below 0."""
    ops = [rec[4] for rec in tracer.spans if rec[0] == "op"]
    split = set(STEP_SPANS.values()) | {"probes.replay"}
    in_ops = sum(1 for rec in tracer.spans if rec[0] not in split)
    untraced_ns = sum(runner.best[key][0] for key in ops) * 1e9
    untraced_s = sum(wall for wall, _ in runner.best.values())
    traced_s = sum(runner.best_traced.values())
    print(f"fastest traced minus fastest untraced passes: {(traced_s / untraced_s - 1) * 100:+.2f}%")
    return in_ops * span_cost_ns() / untraced_ns * 100


def bare_loop(qg, counter, steps: int):
    """open_step -> advance -> close_step, with no harness bookkeeping."""
    state = counter.fresh_state()
    ledger = qg.ProbeLedger()
    advance, open_step, close_step = counter.advance, ledger.open_step, ledger.close_step
    for _ in range(steps):
        open_step()
        advance(state, ledger)
        close_step()
    return state, ledger


def replay_ledger(qg, dim: int, step_reads, step_writes):
    """Charge each step's read and write counts through a fresh ledger."""
    state = qg.BitState(dim)
    ledger = qg.ProbeLedger()
    open_step, read, write, close_step = (
        ledger.open_step,
        ledger.read,
        ledger.write,
        ledger.close_step,
    )
    for r, w in zip(step_reads, step_writes):
        open_step()
        for pos in range(r):
            read(state, pos)
        for pos in range(w):
            write(state, pos, 0)
        close_step()
    return ledger


# ----------------------------------------------------------------- runner


class Runner:
    def __init__(self, qg, workload: Workload, counters, golden, rng: random.Random):
        self.qg = qg
        self.workload = workload
        self.counters = counters
        self.golden = golden
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.watch = Stopwatch()
        # per operation: the fastest [wall s, enumerate_cycle ns] of the
        # untraced passes, the fastest wall s of the traced ones, and steps
        self.best: Dict[str, List[float]] = {}
        self.best_traced: Dict[str, float] = {}
        self.steps: Dict[str, int] = {}
        self.passes = 0
        # the largest allocation peak of one operation, in bytes
        self.peak_bytes = 0

    def _record(self, key: str, run, tracer: Optional[Tracer], memory: bool) -> None:
        """One operation; an exception or a mismatch is a failure, not an abort.
        With ``memory`` it is not timed: tracemalloc takes its peak instead."""
        self.attempted += 1
        ns0, steps0 = self.watch.ns, self.watch.steps
        if memory:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                problems = run()
            else:
                tracer.config = key
                with tracer.span("op"):
                    problems = run()
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        wall = time.perf_counter() - t0
        if problems:
            self.failed += 1
            print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
        if memory:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        elif tracer is None:
            best = self.best.setdefault(key, [math.inf, math.inf])
            best[0] = min(best[0], wall)
            best[1] = min(best[1], self.watch.ns - ns0)
            self.steps[key] = self.watch.steps - steps0
        else:
            self.best_traced[key] = min(self.best_traced.get(key, math.inf), wall)

    def _api_config(self, cfg: Config, counter) -> List[str]:
        qg, gold = self.qg, self.golden["configs"][cfg.key]
        report = qg.harness.enumerate_cycle(counter)
        check = qg.harness.verify_quasi_gray(report, counter.claimed_c)
        bounds = [res.describe() for res in qg.bounds.check_bounds(report, qg.bounds.paper_bounds(counter))]
        row = qg.harness.collect_metrics(report)
        rendered = {"csv": qg.reports.csv_text([row]), "json": qg.reports.json_text(row)}
        problems = [f"{fmt} differs from golden" for fmt in rendered if rendered[fmt] != gold[fmt]]
        if check.describe() != gold["quasi_gray"]:
            problems.append(f"quasi-Gray check {check.describe()!r}")
        if bounds != gold["bounds"]:
            problems.append("bound results differ from golden")
        return problems + oracle_problems(cfg, report.length, report.avg_reads, exact=True)

    def _cli_config(self, cfg: Config) -> List[str]:
        gold = self.golden["configs"][cfg.key]
        fmt = self.rng.choice(("csv", "json"))
        verify_code, verify_out = call_cli(self.qg, ["verify", *cfg.argv()])
        cycle_code, cycle_out = call_cli(self.qg, ["cycle", *cfg.argv(), "--emit", fmt])
        problems = []
        if (verify_code, verify_out) != (gold["verify_rc"], gold["verify"]):
            problems.append(f"verify exit {verify_code} or output differs from golden")
        if cycle_code != 0 or cycle_out != gold[fmt]:
            problems.append(f"cycle --emit {fmt} exit {cycle_code} or output differs from golden")
            return problems
        return problems + oracle_problems(cfg, *emitted_row(cycle_out, fmt))

    def _table1(self) -> List[str]:
        fmt = self.rng.choice(("csv", "json"))
        code, out = call_cli(self.qg, ["table1", "--emit", fmt])
        if code != 0 or out != self.golden["table1"][fmt]:
            return [f"table1 --emit {fmt} exit {code} or output differs from golden"]
        return []

    def run_pass(self, tracer: Optional[Tracer] = None, layers: bool = False, memory: bool = False) -> None:
        """One pass over the workload. With ``layers`` each configuration is
        also replayed through the bare step loop and the ledger, outside the
        operation's span."""
        order = list(zip(self.workload.configs, self.counters))
        if self.workload.via_cli:
            order = self.rng.sample(order, len(order))
        for cfg, counter in order:
            if self.workload.via_cli:
                op = functools.partial(self._cli_config, cfg)
            else:
                op = functools.partial(self._api_config, cfg, counter)
            failed = self.failed
            self._record(cfg.key, op, tracer, memory)
            # a failed operation is already counted; its split would measure nothing
            if layers and self.failed == failed:
                self._layer_split(tracer, cfg, counter)
        if self.workload.via_cli:
            self._record("table1", self._table1, tracer, memory)
        self.passes += not memory

    def _layer_split(self, tracer: Tracer, cfg: Config, counter) -> None:
        report, tracer.last_report = tracer.last_report, None
        if report is None:
            raise ReconcileError(f"{cfg.key}: no enumeration was traced")
        with tracer.span(STEP_SPANS[cfg.counter]) as rec:
            state, ledger = bare_loop(self.qg, counter, report.length)
            rec[5] = report.length
        got = (ledger.steps, ledger.total_reads, ledger.total_writes, state == counter.initial)
        want = (report.length, report.total_reads, report.total_writes, True)
        if got != want:
            raise ReconcileError(f"{cfg.key}: bare loop gave {got}, enumeration {want}")
        with tracer.span("probes.replay") as rec:
            replayed = replay_ledger(self.qg, counter.dim, report.step_reads, report.step_writes)
            rec[5] = report.length
        if (replayed.total_reads, replayed.total_writes) != want[1:3]:
            raise ReconcileError(f"{cfg.key}: ledger replay disagrees with enumeration")
        tracer.probes[cfg.key] = (report.total_reads, report.total_writes)
        bitmap = (1 << counter.dim) // 8 if counter.dim <= 26 else 0
        tracer.report_bytes = max(tracer.report_bytes, 6 * report.length + bitmap)


# ----------------------------------------------------------------- metrics


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for aa in (
            m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m)),
        ):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1 - front * _betacf(b, a, 1 - x) / b


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by Beta((n+1)p, (n+1)(1-p)). A plain 90th percentile
    of 64 configurations reads two of them, so one configuration's timing
    noise moves it whole; this one spreads over the five or six nearest."""
    xs, n = sorted(values), len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(runner: Runner, setup_s: float) -> Dict[str, Dict[str, object]]:
    """Each operation counts with its fastest untraced pass: on a shared
    machine slow phases last seconds, and the fastest repetition is what
    stays put from run to run."""
    best = runner.best
    lat_ms = [best[key][0] * 1e3 for key in best if key != "table1"]
    print(
        f"fastest of {runner.passes} passes for each of {len(lat_ms)} configurations; "
        f"error_rate {runner.failed}/{runner.attempted}"
    )
    enum_ns = sum(ns for _, ns in best.values())
    return {
        "steps_per_s": _metric(sum(runner.steps.values()) / max(enum_ns, 1) * 1e9, "steps/s"),
        "configs_per_s": _metric(len(lat_ms) / sum(wall for wall, _ in best.values()), "configs/s"),
        "config_p50_ms": _metric(hd_quantile(lat_ms, 0.5), "ms"),
        "config_p90_ms": _metric(hd_quantile(lat_ms, 0.9), "ms"),
        "peak_alloc_kib": _metric(runner.peak_bytes / 1024, "KiB"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer(tracer: Tracer) -> Dict[str, Dict[str, object]]:
    """Metrics of the layers this tracer saw; a layer it did not see is left
    out. Step, ledger and enumeration costs use each configuration's fastest
    pass, like the end-to-end metrics."""
    self_ns, calls = tracer.totals()
    out: Dict[str, Dict[str, object]] = {}
    for span, name in LAYER_MS.items():
        if span in calls:
            out[name] = _metric(self_ns[span] / calls["op"] / 1e6, "ms")
    fastest = tracer.fastest()

    def ns_per_step(names, configs=None) -> Tuple[float, int]:
        picked = [v for (name, config), v in fastest.items()
                  if name in names and (configs is None or config in configs)]
        steps = sum(count for _, count in picked)
        return sum(ns for ns, _ in picked) / steps, steps

    step_spans = set(STEP_SPANS.values()) & set(calls)
    for span in sorted(step_spans):
        out[span + "_ns"] = _metric(ns_per_step({span})[0], "ns")
    if step_spans:
        bare_ns, steps = ns_per_step(step_spans)
        # enumerations of the configurations that were replayed, so both
        # sides of the difference cover the same steps
        enum_ns, _ = ns_per_step({"harness.enumerate"}, set(tracer.probes))
        reads = sum(r for r, _ in tracer.probes.values())
        writes = sum(w for _, w in tracer.probes.values())
        out.update(
            {
                "harness.overhead_ns_per_step": _metric(enum_ns - bare_ns, "ns"),
                "harness.steps": _metric(steps, "count"),
                # computed as 3 per-step arrays x 2 B x L plus the 2^dim/8 bitmap
                "harness.report_bytes": _metric(tracer.report_bytes, "B"),
                "probes.total_reads": _metric(reads, "count"),
                "probes.total_writes": _metric(writes, "count"),
                "probes.reads_per_step": _metric(reads / steps, "reads/step"),
                "probes.writes_per_step": _metric(writes / steps, "writes/step"),
                "probes.ledger_ns_per_step": _metric(ns_per_step({"probes.replay"})[0], "ns"),
            }
        )
    return out


# ----------------------------------------------------------------- main


def setup_specs(workload: Workload, ranks) -> List[str]:
    """The workload's counters, spelled for SETUP_CHILD."""
    specs = []
    for cfg, rank in zip(workload.configs, ranks):
        pairs = [f"{k}={','.join(map(str, v)) if k == 'layers' else v}" for k, v in cfg.kwargs().items()]
        specs.append(" ".join([cfg.counter, *pairs] + ([f"rank={rank}"] if rank is not None else [])))
    return specs


def setup_sample(specs: List[str]) -> float:
    """Seconds a fresh interpreter takes to import the package, standard
    library modules included, and build the counters."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *specs],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, module = proc.stdout.split()
    if Path(module).resolve().parent != SRC / "quasigray":
        raise ImportError(f"set-up imported quasigray from {module}, not from {SRC}")
    return float(seconds)


def traced(qg, args, runner: Runner, tracer: Tracer, workloads, golden, rng, span_dir: Path):
    """Per-layer metrics from the traced passes, each of which also split
    step logic from harness and ledger. Layers this workload never reaches
    are measured on one traced pass of the verify-sweep grid."""
    metrics = per_layer(tracer)
    spans = {args.workload: tracer.spans}
    if not runner.workload.via_cli:
        sweep = workloads["verify-sweep"]
        counters = [build_counter(qg, cfg, None) for cfg in sweep.configs]
        cover = Runner(qg, sweep, counters, golden, rng)
        cover_tracer = Tracer()
        with cover_tracer.installed(qg):
            cover.run_pass(cover_tracer, layers=True)
        runner.attempted += cover.attempted
        runner.failed += cover.failed
        for name, value in per_layer(cover_tracer).items():
            metrics.setdefault(name, value)
        spans["verify-sweep"] = cover_tracer.spans
    metrics["trace.overhead_pct"] = _metric(tracing_overhead_pct(runner, tracer), "%")
    span_dir.mkdir(parents=True, exist_ok=True)
    out = span_dir / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ["name", "start_ns", "end_ns", "parent", "config", "count"]
    out.write_text(json.dumps({"fields": fields, "spans": spans}), encoding="utf-8")
    print(f"{sum(map(len, spans.values()))} spans written to {out}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None, workloads=WORKLOADS, golden_path: Path = GOLDEN, span_dir: Path = SPAN_DIR) -> int:
    args = parse_args(argv)
    if not (SRC / "quasigray" / "__init__.py").is_file():
        print(f"error: no quasigray package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    rng = random.Random(args.seed)
    # the seed picks the start state of each space-optimal counter that the
    # benchmark drives directly; its cycle, and so its report, is unchanged
    ranks = [
        rng.randrange(1 << cfg.space_dim)
        if cfg.counter in SPACE_OPTIMAL and not workload.via_cli
        else None
        for cfg in workload.configs
    ]
    specs = None if args.trace else setup_specs(workload, ranks)
    setup_times: List[float] = []
    qg = import_program()
    counters = [build_counter(qg, cfg, rank) for cfg, rank in zip(workload.configs, ranks)]
    runner = Runner(qg, workload, counters, golden, rng)
    enumerate_cycle = qg.harness.enumerate_cycle
    watched = {enumerate_cycle: runner.watch.wrap(enumerate_cycle)}
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while runner.passes == 0 or time.perf_counter() < start + args.seconds:
        # keep set-up samples on schedule across the run, between passes
        while (
            specs
            and len(setup_times) < SETUP_REPEATS
            and len(setup_times) * args.seconds <= SETUP_REPEATS * (time.perf_counter() - start)
        ):
            setup_times.append(setup_sample(specs))
        with patched(watched):
            runner.run_pass()
        if tracer is not None:
            with tracer.installed(qg):
                runner.run_pass(tracer, layers=True)
    if tracer is not None:
        metrics = traced(qg, args, runner, tracer, workloads, golden, rng, span_dir)
    else:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_sample(specs))
        runner.run_pass(memory=True)
        metrics = end_to_end(runner, statistics.median(setup_times))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReconcileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
