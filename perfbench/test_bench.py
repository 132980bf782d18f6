"""Tests of the benchmark itself, at desk-test sizes (``run.TINY``).

Each run goes through a fresh interpreter, because the benchmark patches
module attributes to time and trace the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TINY_MAIN = (
    "import pathlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "sys.exit(run.main(sys.argv[4:], workloads=run.TINY,"
    " golden_path=pathlib.Path(sys.argv[2]), span_dir=pathlib.Path(sys.argv[3])))\n"
)

LAYER_SPANS = {
    "op",
    "counters.make",
    "harness.enumerate",
    "harness.verify",
    "bounds.check",
    "logmath.certify",
    "reports.render",
    "reports.table1",
    "cli.parse",
    "cli.run",
    "rpgc.step",
    "composite.step",
    "brgc.step",
    "lazy.step",
    "harness.binary_step",
    "probes.replay",
}


def run_tiny(tmp_path, workload, trace, seed=1, golden=HERE / "golden.json"):
    proc = subprocess.run(
        [sys.executable, "-c", TINY_MAIN, str(HERE), str(golden), str(tmp_path),
         "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    result, _ = run_tiny(tmp_path, workload, trace, seed=trace + 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_harrell_davis_quantile():
    sys.path.insert(0, str(HERE))
    import run

    assert run.hd_quantile([7.5], 0.9) == 7.5
    # symmetric weights at p = 0.5 give the median of evenly spaced values
    assert run.hd_quantile([float(x) for x in range(1, 10)], 0.5) == pytest.approx(5.0)
    # reference value from scipy.stats.mstats.hdquantiles
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    assert run.hd_quantile(values, 0.9) == pytest.approx(7.970572346263147, rel=1e-9)


def test_tampered_golden_row_is_a_failed_operation(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    row = golden["configs"]["--counter rpgc --dim 8"]
    row["csv"] = row["csv"].replace("rpgc,8", "rpgc,9")
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden), encoding="utf-8")
    result, proc = run_tiny(tmp_path, "rpgc-deep", 0, golden=tampered)
    assert result["correct"] is False
    # one timed pass and one pass under tracemalloc, two configurations each
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert "FAILED --counter rpgc --dim 8: csv differs from golden" in proc.stderr


def test_traced_pass_yields_spans_for_every_layer(tmp_path):
    result, _ = run_tiny(tmp_path, "rpgc-deep", 1)
    assert result["correct"] is True
    dump = json.loads((tmp_path / "spans-rpgc-deep-seed1.json").read_text(encoding="utf-8"))
    assert set(dump["spans"]) == {"rpgc-deep", "verify-sweep"}
    assert {s[0] for s in dump["spans"]["rpgc-deep"]} >= {"op", "rpgc.step", "composite.step"}
    for spans in dump["spans"].values():
        for name, start, end, parent, config, _ in spans:
            assert start <= end and config
            assert parent == -1 or spans[parent][4] == config
    assert {s[0] for s in dump["spans"]["verify-sweep"]} == LAYER_SPANS
    # tracing costs time, so its stated overhead is above 0
    assert result["metrics"]["trace.overhead_pct"]["value"] > 0


def test_bare_loop_that_misses_the_cycle_fails_the_traced_run():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "sys.path.insert(0, str(run.SRC))\n"
        "qg = run.import_program()\n"
        "cfg = run.Config('rpgc', dim=4)\n"
        "counter = run.build_counter(qg, cfg, None)\n"
        "report = qg.harness.enumerate_cycle(counter)\n"
        "report.total_reads += 1\n"
        "tracer = run.Tracer()\n"
        "tracer.last_report = report\n"
        "runner = run.Runner(qg, run.TINY['rpgc-deep'], [counter], {}, None)\n"
        "try:\n"
        "    runner._layer_split(tracer, cfg, counter)\n"
        "except run.ReconcileError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(3)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "bare loop gave" in proc.stdout


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
