import json

import pytest

from quasigray.cli import run_cli
from quasigray.reports import CSV_COLUMNS


def test_list_names_every_counter(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("binary", "brgc", "rpgc", "composite", "lazy", "spin", "doublespin", "wine"):
        assert name in out


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
    assert run_cli(["cycle", "--counter", "rpgc"]) == 2
    assert run_cli(["cycle", "--counter", "doublespin", "--n", "4"]) == 2
    assert run_cli(["bench", "--counter", "rpgc"]) == 2


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


def test_cap_zero_is_rejected(monkeypatch, capsys):
    # --cap 0 must not fall back to the environment or the default cap
    monkeypatch.setenv("QUASIGRAY_CYCLE_CAP", "5")
    for verb in (
        ["cycle", "--counter", "rpgc", "--dim", "4"],
        ["bench", "--counter", "rpgc", "--dims", "2"],
        ["table1"],
    ):
        assert run_cli([*verb, "--cap", "0"]) == 2
        assert "--cap must be >= 1, got 0" in capsys.readouterr().err


def test_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("QUASIGRAY_CYCLE_CAP", "5")
    assert run_cli(["cycle", "--counter", "rpgc", "--dim", "4"]) == 0
    assert "closed=false" in capsys.readouterr().out


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
