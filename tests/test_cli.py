import argparse
import ast
import contextlib
import gc
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from quasigray import cli
from quasigray.cli import run_cli
from quasigray.reports import CSV_COLUMNS


LIST_TEXT = """\
binary       --dim D            standard binary counter (folklore baseline)
brgc         --dim D            binary reflected Gray code
composite    --layers A,B,..    layered plan, innermost first (--inner rpgc|brgc); \
or --dim D --c C for the planned split
doublespin   --n N --g G        lazy counter with a G-bit spin phase
lazy         --n N              base lazy counter (N a power of two >= 2)
rpgc         --dim D            recursive partition Gray code
spin         --n N              lazy counter with a one-bit spin phase
wine         --n N --g G        Gray-coded spin counter (write cap 3); \
optional --encoding brgc|rpgc
"""


def test_list_names_every_counter(capsys):
    assert run_cli(["list"]) == 0
    assert capsys.readouterr() == (LIST_TEXT, "")


def test_cycle_json_report(capsys):
    assert run_cli(["cycle", "--counter", "rpgc", "--dim", "3", "--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 8
    assert payload["closed"] is True
    assert payload["avg_reads"]["num"] == 3


def test_cycle_summary_line(capsys):
    assert run_cli(["cycle", "--counter", "brgc", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "length=4" in out and "worst_writes=1" in out


def test_verify_brgc_passes(capsys):
    assert run_cli(["verify", "--counter", "brgc", "--dim", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_composite_layers(capsys):
    assert run_cli(["verify", "--counter", "composite", "--layers", "4,2"]) == 0


def test_verify_binary_passes_at_its_own_constant(capsys):
    # the binary counter claims c = d, so its verification is honest
    assert run_cli(["verify", "--counter", "binary", "--dim", "3"]) == 0


def test_wine_parameter_validation_exits_2(capsys):
    assert run_cli(["cycle", "--counter", "wine", "--n", "3", "--g", "1"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_missing_parameters_exit_2(capsys):
    for command, err in (
        ("cycle --counter rpgc", "error: counter rpgc needs --dim\n"),
        ("cycle --counter doublespin --n 4", "error: counter doublespin needs --g\n"),
        ("bench --counter rpgc", "error: bench --counter rpgc needs --dims\n"),
    ):
        assert run_cli(command.split()) == 2
        assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "command, code, err, rows",
    [
        ("bench --counter rpgc --dims 5-3", 2, "error: empty range '5-3' for --dims\n", 0),
        ("bench --counter rpgc --dims a-b", 2, "error: bad range 'a-b' for --dims\n", 0),
        ("bench --counter rpgc --dims x", 2, "error: bad value 'x' for --dims\n", 0),
        ("bench --counter rpgc --dims ,", 2, "error: --dims needs at least one value\n", 0),
        (
            "verify --counter rpgc --dim 6 --cap 5",
            1,
            "verify failed: cycle closed=False distinct=True\n",
            0,
        ),
        ("bench --counter composite --layers 3,2", 0, "", 1),
    ],
)
def test_cli_input_checks(capsys, command, code, err, rows):
    assert run_cli(command.split()) == code
    captured = capsys.readouterr()
    assert captured.err == err
    # a bench writes a header and then one CSV line per configuration
    assert len(captured.out.splitlines()) == (rows + 1 if rows else 0)


@pytest.mark.parametrize(
    "command,flags",
    [
        ("cycle --counter rpgc --dim 3 --n 5", "--n"),
        ("cycle --counter lazy --n 4 --dim 9 --g 3", "--dim, --g"),
        ("cycle --counter composite --layers 3,2 --c 4", "--c"),
        ("cycle --counter composite --dim 5 --inner brgc", "--inner"),
        ("cycle --counter rpgc --dim 3 --inner brgc", "--inner"),
        ("cycle --counter doublespin --n 4 --g 1 --encoding rpgc", "--encoding"),
        ("verify --counter brgc --dim 3 --c 2", "--c"),
        ("bench --counter rpgc --dims 2 --ns 2", "--ns"),
        ("bench --counter wine --ns 2 --gs 1 --dims 3", "--dims"),
        ("bench --counter lazy --ns 2 --gs 1", "--gs"),
        ("bench --counter composite --layers 2,2 --encoding rpgc", "--encoding"),
        ("bench --counter doublespin --ns 2 --gs 1 --encoding rpgc", "--encoding"),
    ],
)
def test_flags_the_counter_does_not_take_exit_2(capsys, command, flags):
    assert run_cli(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"does not take {flags}\n")


def test_flags_each_counter_takes_are_accepted(capsys):
    for command in (
        "cycle --counter composite --layers 2,2 --inner brgc",
        "cycle --counter composite --dim 4 --c 1",
        "bench --counter wine --ns 2 --gs 1 --encoding rpgc",
    ):
        assert run_cli(command.split()) == 0


def test_unknown_flags_exit_2():
    assert run_cli(["cycle", "--counter", "rpgc", "--dim", "3", "--bogus"]) == 2
    assert run_cli(["frobnicate"]) == 2


def test_auto_plan_precondition_exits_2(capsys):
    assert run_cli(["cycle", "--counter", "composite", "--dim", "64", "--c", "2"]) == 2
    assert ">= 11" in capsys.readouterr().err


def test_cycle_cap_flag_warns_when_unclosed(capsys):
    assert run_cli(["cycle", "--counter", "rpgc", "--dim", "4", "--cap", "5"]) == 0
    captured = capsys.readouterr()
    assert "closed=false" in captured.out
    assert "did not close" in captured.err


def test_cap_zero_is_rejected(capsys):
    # --cap 0 must not fall back to the default cap
    for verb in (
        ["cycle", "--counter", "rpgc", "--dim", "4"],
        ["bench", "--counter", "rpgc", "--dims", "2"],
        ["table1"],
    ):
        assert run_cli([*verb, "--cap", "0"]) == 2
        assert "--cap must be >= 1, got 0" in capsys.readouterr().err


def test_steps_touching_2_16_bits_or_more_exit_0(capsys):
    # a step may read 2^16 bits or more: its count passes two bytes
    assert run_cli(["cycle", "--counter", "rpgc", "--dim", "65536", "--cap", "3"]) == 0
    assert run_cli(["cycle", "--counter", "brgc", "--dim", "70000", "--cap", "1"]) == 0
    assert "avg_reads=70000 " in capsys.readouterr().out


def test_a_state_past_the_dimension_bound_exits_2(capsys):
    for argv in (
        "cycle --counter brgc --dim 1048577 --cap 1",
        "cycle --counter lazy --n 1048576 --cap 1",
        "verify --counter wine --n 2 --g 1048576",
        "cycle --counter composite --layers 1048576,1 --cap 1",
    ):
        assert run_cli(argv.split()) == 2
        assert "dimension must be between 1 and 1048576" in capsys.readouterr().err


def test_a_sweep_past_the_dimension_bound_exits_2_before_expanding(capsys):
    # a range is checked before it is listed, so none of its values is built
    tracemalloc.start()
    try:
        code = run_cli("bench --counter brgc --dims 1-1000000000000 --cap 1".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    assert "goes past 1048576" in capsys.readouterr().err
    # so is the count of values the ranges add up to
    assert run_cli("bench --counter brgc --dims 2,1-1048576 --cap 1".split()) == 2


def test_the_parser_is_built_once_and_a_call_leaves_no_garbage(monkeypatch, capsys):
    assert run_cli(["list"]) == 0  # warm-up: the first call in a process builds the parser
    gc.collect()
    assert run_cli(["list"]) == 0
    # a call parses with a shallow copy, which reference counting frees
    assert gc.collect() == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert run_cli(["list"]) == 0
    assert run_cli(["verify", "--counter", "brgc", "--dim", "3"]) == 0
    assert run_cli(["cycle", "--counter", "nope"]) == 2
    assert built == []


def _help_texts(parser, capsys):
    texts = [parser.format_help()]
    for verb in ("list", "cycle", "verify", "bench", "table1"):
        with pytest.raises(SystemExit):
            parser.parse_args([verb, "--help"])
        texts.append(capsys.readouterr().out)
    return texts


def test_each_call_parses_with_an_identical_independent_copy(capsys):
    # perfbench's tracer rebinds parse_args on the parser build_parser returns
    first = cli.build_parser()
    first.parse_args = lambda args=None: pytest.fail("a rebinding reached a later copy")
    second = cli.build_parser()
    assert second is not first and "parse_args" not in vars(second)
    assert run_cli(["list"]) == 0
    capsys.readouterr()
    gc.collect()
    fresh = cli._built_parser.__wrapped__()
    # the build frees the help formatters it threw away
    assert gc.collect() == 0
    assert _help_texts(second, capsys) == _help_texts(fresh, capsys)


USAGE_ERROR_TWICE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from quasigray.cli import run_cli

for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(["cycle", "--counter", "nope"])
    print(repr((code, err.getvalue())))
"""


def test_a_usage_error_reads_the_same_on_the_first_call_and_later():
    src = str(Path(cli.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", USAGE_ERROR_TWICE, src],
        capture_output=True,
        text=True,
        check=True,
    )
    first, later = run.stdout.splitlines()
    assert first == later
    code, err = ast.literal_eval(first)
    assert code == 2 and err.startswith("usage: quasigray cycle")
    assert "invalid choice: 'nope'" in err


def test_repeated_calls_hold_the_same_memory():
    # the parser is built once per process, and each call's shallow copy of
    # it is freed by reference counting, so a call's peak does not depend on
    # when the collector last ran; when it did, one command's peak moved by
    # about 10 KiB from one call to the next
    argv = ["cycle", "--counter", "rpgc", "--dim", "6", "--emit", "json"]
    peaks = []
    for _ in range(8):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) - min(peaks[1:]) < 4096, peaks


def test_bench_writes_ordered_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        run_cli(
            ["bench", "--counter", "rpgc", "--dims", "4,2-3", "--output", str(out)]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    dims = [line.split(",")[1] for line in lines[1:]]
    assert dims == ["2", "3", "4"]


def test_bench_lazy_grid_json(tmp_path):
    out = tmp_path / "bench.json"
    assert (
        run_cli(
            [
                "bench",
                "--counter",
                "doublespin",
                "--ns",
                "2,4",
                "--gs",
                "1,2",
                "--emit",
                "json",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    rows = json.loads(out.read_text())
    assert [(r["params"]) for r in rows] == [
        "encoding=binary;g=1;n=2",
        "encoding=binary;g=2;n=2",
        "encoding=binary;g=1;n=4",
        "encoding=binary;g=2;n=4",
    ]


def test_table1_file_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["table1", "--output", str(a)]) == 0
    assert run_cli(["table1", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith(",".join(CSV_COLUMNS))
    assert "paper_bound_avg_reads" in header


def test_table1_cap_leaves_the_composite_bound_cells_alone(capsys):
    # a bound cell is a claim about the whole inner code, so the cap must
    # not cut short the inner enumeration behind composite's average bound
    cells = []
    for cap in ([], ["--cap", "100"]):
        assert run_cli(["table1", "--emit", "json", *cap]) == 0
        rows = json.loads(capsys.readouterr().out)
        composites = [r for r in rows if r["counter"] == "composite"]
        cells.append(
            [{k: v for k, v in r.items() if k.startswith("paper_bound_")} for r in composites]
        )
    assert len(cells[0]) == 2 and all(len(row) == 4 for row in cells[0])
    assert cells[0] == cells[1]


def test_cycle_output_file_has_lf_endings(tmp_path):
    out = tmp_path / "row.csv"
    assert (
        run_cli(
            ["cycle", "--counter", "brgc", "--dim", "3", "--emit", "csv", "--output", str(out)]
        )
        == 0
    )
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").endswith("\n")


def _readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_run(argv, tmp_path, capsys):
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1 :]]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
