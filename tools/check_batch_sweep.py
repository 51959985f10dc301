#!/usr/bin/env python3
"""Batch-harness smoke check for setsched (runs as ctest `expt_smoke`).

Runs small setsched_expt sweeps and asserts:

  * a 2 presets x 3 seeds x 3 solvers sweep writes JSONL, CSV and
    BENCH_expt.json that parse and agree on the cell count, every cell is ok
    or skipped, and every row carries the proven_optimal/gap certificate;
  * the same sweep with --no-timing gives the same sorted JSONL at 1 and 4
    threads;
  * the assignment-LP T-search re-optimizes some probes with the dual
    simplex (lp_dual_solves_mean > 0 for rounding and assignment-lp).

Usage:
  python3 tools/check_batch_sweep.py --expt build/setsched_expt --out DIR

The JSONL, CSV and BENCH_expt*.json files are left in DIR.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import subprocess
import sys

SMOKE = ("--presets=uniform-small,unrelated-small",
         "--solvers=greedy,lpt,local-search", "--seeds=3")


def run(expt: str, *args: str) -> None:
    subprocess.run([expt, *args], check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expt", required=True,
                        help="path to the setsched_expt binary")
    parser.add_argument("--out", default=".",
                        help="directory for the sweep outputs")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sweep, table, bench_path = (out / "sweep.jsonl", out / "sweep.csv",
                                out / "BENCH_expt.json")
    run(args.expt, *SMOKE, "--threads=2", f"--jsonl={sweep}",
        f"--csv={table}", f"--bench-json={bench_path}")
    records = [json.loads(line) for line in sweep.read_text().splitlines()
               if line.strip()]
    assert len(records) == 18, f"want 18 cells, got {len(records)}"
    assert all(r["status"] in ("ok", "skipped") for r in records), \
        [r for r in records if r["status"] not in ("ok", "skipped")]
    # Every record carries the search certificate fields, so quality tables
    # can always separate proven optima from incumbents.
    for r in records:
        assert "proven_optimal" in r and "gap" in r, r
        assert isinstance(r["proven_optimal"], bool), r
    bench = json.loads(bench_path.read_text())
    assert bench["bench"] == "expt" and bench["cells"] == 18, bench
    assert bench["summaries"], "no aggregate summaries"
    with table.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records), (len(rows), len(records))

    # Thread count never changes a --no-timing row.
    sorted_rows = []
    for threads in (1, 4):
        path = out / f"sweep_t{threads}.jsonl"
        run(args.expt, *SMOKE, f"--threads={threads}", "--no-timing",
            "--quiet", f"--jsonl={path}")
        sorted_rows.append(sorted(path.read_text().splitlines()))
    assert sorted_rows[0] == sorted_rows[1], \
        "sorted JSONL differs between 1 and 4 threads"

    # The T-search warm-starts every probe from the previous basis; a probe
    # that leaves it primal-infeasible must be re-optimized dually.
    lp_bench_path = out / "BENCH_expt_lp.json"
    run(args.expt, "--presets=unrelated-small",
        "--solvers=rounding,assignment-lp", "--seeds=3", "--threads=2",
        "--quiet", f"--bench-json={lp_bench_path}")
    lp_bench = json.loads(lp_bench_path.read_text())
    assert lp_bench["failed"] == 0, lp_bench
    assert len(lp_bench["summaries"]) == 2, lp_bench["summaries"]
    for s in lp_bench["summaries"]:
        assert s["lp_dual_solves_mean"] > 0, s

    print("batch smoke ok:", len(records), "cells,", bench["ok"], "ok,",
          bench["skipped"], "skipped; dual solves per T-search:",
          [(s["solver"], s["lp_dual_solves_mean"])
           for s in lp_bench["summaries"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
