"""Write perfbench/golden.json from the program in src/.

The golden rows are the reference every benchmark run compares against, so
regenerate them only at a commit whose reports are known to be right:

    python3 perfbench/make_golden.py

For every configuration of every workload it stores the bytes of
``cycle --emit csv`` and ``--emit json``, the output and exit code of
``verify``, and the quasi-Gray and bound lines; plus both forms of
``table1``. It refuses to write a row that fails a closed-form oracle.
"""

from __future__ import annotations

import json
import sys

import run


def golden_row(qg, cfg: run.Config) -> dict:
    row = {}
    for fmt in ("csv", "json"):
        code, row[fmt] = run.call_cli(qg, ["cycle", *cfg.argv(), "--emit", fmt])
        if code != 0:
            raise SystemExit(f"cycle {cfg.key} exited {code}")
    row["verify_rc"], row["verify"] = run.call_cli(qg, ["verify", *cfg.argv()])
    counter = run.build_counter(qg, cfg, None)
    report = qg.harness.enumerate_cycle(counter)
    row["quasi_gray"] = qg.harness.verify_quasi_gray(report, counter.claimed_c).describe()
    row["bounds"] = [r.describe() for r in qg.bounds.check_bounds(report, qg.bounds.paper_bounds(counter))]
    problems = run.oracle_problems(cfg, report.length, report.avg_reads, exact=True)
    if problems:
        raise SystemExit(f"{cfg.key}: {'; '.join(problems)}")
    return row


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    qg = run.import_program()
    configs = {}
    for workloads in (run.WORKLOADS, run.TINY):
        for workload in workloads.values():
            for cfg in workload.configs:
                if cfg.key not in configs:
                    print(cfg.key, flush=True)
                    configs[cfg.key] = golden_row(qg, cfg)
    table1 = {fmt: run.call_cli(qg, ["table1", "--emit", fmt])[1] for fmt in ("csv", "json")}
    run.GOLDEN.write_text(
        json.dumps({"configs": configs, "table1": table1}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
