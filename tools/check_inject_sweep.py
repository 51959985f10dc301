#!/usr/bin/env python3
"""Fault-injection sweep check for setsched (runs as ctest `expt_inject`).

Runs three small setsched_expt sweeps with the deterministic LP fault
injector armed (docs/ROBUSTNESS.md) and asserts the safety-net contract on
the JSONL rows:

  * every cell validates (status ok, or skipped where the solver's
    structural precondition fails);
  * no corrupted bound leaks into a certificate: proven_optimal <=> gap == 0;
  * lp_audits_suspect >= lp_recoveries + lp_oracle_fallbacks per row;
  * every LP-based solver reports contested solves (suspect > 0), so a path
    that drops its guard counters fails here;
  * the ladder did some work, and the NaN-heavy sweep recovered.

Usage:
  python3 tools/check_inject_sweep.py --expt build/setsched_expt --out DIR

The JSONL files and BENCH_expt_inject.json are left in DIR.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

# Every LP-based solver the sweeps run, with the presets it runs on.
UNRELATED_SOLVERS = ("exact", "rounding", "assignment-lp")
STRUCTURED_SOLVERS = ("restricted-2approx", "classuniform-3approx", "colgen")


def sweep(expt: str, out: pathlib.Path, jsonl: str, *args: str) -> list[dict]:
    path = out / jsonl
    subprocess.run([expt, "--seeds=3", "--threads=2", "--quiet",
                    f"--jsonl={path}", *args], check=True)
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def check_row(r: dict) -> None:
    assert r["status"] in ("ok", "skipped"), r
    assert r["lp_audits_suspect"] >= \
        r["lp_recoveries"] + r["lp_oracle_fallbacks"], r
    if r["proven_optimal"]:
        assert r["gap"] == 0.0, f"proven run with open gap: {r}"
    elif r["gap"] != -1.0:
        assert r["gap"] > 0.0, f"abort mislabeled as optimum: {r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expt", required=True,
                        help="path to the setsched_expt binary")
    parser.add_argument("--out", default=".",
                        help="directory for the sweep outputs")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    unrelated = sweep(
        args.expt, out, "inject_sweep.jsonl", "--presets=unrelated-small",
        "--solvers=" + ",".join(UNRELATED_SOLVERS), "--inject=all@0.05",
        "--time-limit=5",
        f"--bench-json={out / 'BENCH_expt_inject.json'}")
    structured = sweep(
        args.expt, out, "inject_structured.jsonl",
        "--presets=restricted,class-uniform",
        "--solvers=" + ",".join(STRUCTURED_SOLVERS), "--inject=all@0.05")
    nan = sweep(args.expt, out, "inject_nan.jsonl",
                "--presets=unrelated-small", "--solvers=assignment-lp",
                "--inject=ftran-nan@0.5")

    assert len(unrelated) == 9, f"want 9 cells, got {len(unrelated)}"
    assert all(r["status"] == "ok" for r in unrelated), unrelated
    assert len(structured) == 18, f"want 18 cells, got {len(structured)}"
    records = unrelated + structured
    for r in records:
        check_row(r)

    suspect = {}
    for r in records:
        suspect[r["solver"]] = suspect.get(r["solver"], 0) + \
            r["lp_audits_suspect"]
    for solver in UNRELATED_SOLVERS + STRUCTURED_SOLVERS:
        assert suspect.get(solver, 0) > 0, \
            f"injection armed but no {solver} solve was contested"
    ladder = sum(r["lp_recoveries"] + r["lp_oracle_fallbacks"]
                 for r in records)
    assert ladder > 0, "contested solves but no ladder activity"

    bench = json.loads((out / "BENCH_expt_inject.json").read_text())
    assert bench["plan"]["inject"] == "all@0.05", bench["plan"]

    assert all(r["status"] == "ok" for r in nan), nan
    nan_activity = sum(r["lp_recoveries"] + r["lp_oracle_fallbacks"]
                       for r in nan)
    assert nan_activity > 0, "NaN-heavy sweep produced no recoveries"

    print("fault-injection sweep ok:", sum(suspect.values()), "contested,",
          ladder, "recovered or referred to the last rung,", nan_activity,
          "under ftran-nan@0.5; contested per solver:", suspect)
    return 0


if __name__ == "__main__":
    sys.exit(main())
