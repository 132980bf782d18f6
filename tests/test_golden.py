"""Byte-for-byte replay of the benchmark's golden rows through the CLI.

``perfbench/golden.json`` holds the rendered output of every configuration
the benchmark runs, plus both forms of ``table1``. Each is replayed here
through ``run_cli``, so any change to a rendered byte fails tier-1 too.
The file is read only; it is written by ``perfbench/make_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from quasigray.cli import run_cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("key", sorted(GOLDEN["configs"]))
def test_golden_config_replays(key):
    gold = GOLDEN["configs"][key]
    argv = key.split()
    assert _run(["verify", *argv]) == (gold["verify_rc"], gold["verify"])
    for fmt in ("csv", "json"):
        assert _run(["cycle", *argv, "--emit", fmt]) == (0, gold[fmt])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_table1_replays(fmt):
    assert _run(["table1", "--emit", fmt]) == (0, GOLDEN["table1"][fmt])
