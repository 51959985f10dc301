#!/usr/bin/env python3
"""Golden behaviour sweeps for setsched (runs as ctest `expt_golden`).

Re-runs three fixed setsched_expt sweeps with --no-timing and asserts that
their sorted JSONL is byte-identical to the files under tests/golden/. All
three use a 600 s budget so every exact proof closes:

  * sweep A (tests/golden/sweep_a.jsonl): every solver on unrelated-tiny and
    unrelated-small, seeds 1-2;
  * sweep I (tests/golden/sweep_i.jsonl): every solver on unrelated-tiny,
    seeds 1-2, with the LP fault injector armed (--inject=all@0.05);
  * sweep E (tests/golden/sweep_e.jsonl): the four exact solvers (exact,
    exact-dive, dive-then-prove, branch-and-price) on unrelated-small,
    seeds 1-12. It pins the node and LP-iteration counts of the beam dive
    and the depth-first search.

Every node count, iteration count, ratio and guard counter is in those
rows, so a refactor that claims "same behaviour" either passes this check
or changes the golden files in the same commit, where the diff shows which
fields moved. Rows do not depend on the thread count or the build type.

On a mismatch the script prints, per differing row, the fields that moved.

Usage:
  python3 tools/check_golden_sweep.py --expt build/setsched_expt --out DIR

The sorted JSONL of every sweep is left in DIR. To regenerate the golden
files after an intended behaviour change, run the same sweeps with --update,
which writes their sorted JSONL into tests/golden/ instead of comparing:

  python3 tools/check_golden_sweep.py --expt build/setsched_expt --out DIR \\
      --update

Then review the diff of tests/golden/ and say in the commit which fields
moved.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
COMMON = ("--time-limit=600", "--no-timing", "--threads=4", "--quiet")
SWEEPS = {
    "sweep_a": ("--all-solvers", "--seeds=2",
                "--presets=unrelated-tiny,unrelated-small"),
    "sweep_i": ("--all-solvers", "--seeds=2", "--presets=unrelated-tiny",
                "--inject=all@0.05"),
    "sweep_e": ("--presets=unrelated-small", "--seeds=12",
                "--solvers=exact,exact-dive,dive-then-prove,"
                "branch-and-price"),
}


def cell(line: str) -> tuple:
    r = json.loads(line)
    return (r["solver"], r["preset"], r["seed"])


def explain(name: str, want: list[str], got: list[str]) -> None:
    """Prints the fields that differ, row by row."""
    want_rows = {cell(line): json.loads(line) for line in want}
    got_rows = {cell(line): json.loads(line) for line in got}
    for key in sorted(want_rows.keys() | got_rows.keys()):
        a, b = want_rows.get(key), got_rows.get(key)
        if a is None or b is None:
            print(f"{name}: {key} only in {'output' if a is None else 'golden'}")
            continue
        moved = {f: (a.get(f), b.get(f)) for f in a.keys() | b.keys()
                 if a.get(f) != b.get(f)}
        if moved:
            print(f"{name}: {key} golden -> output: {moved}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--expt", required=True,
                        help="path to the setsched_expt binary")
    parser.add_argument("--out", default=".",
                        help="directory for the sweep outputs")
    parser.add_argument("--update", action="store_true",
                        help="write the sorted sweeps into tests/golden/ "
                             "instead of comparing against it")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failed = []
    for name, sweep_args in SWEEPS.items():
        raw = out / f"{name}.raw.jsonl"
        subprocess.run([args.expt, *sweep_args, *COMMON, f"--jsonl={raw}"],
                       check=True)
        got = sorted(raw.read_text().splitlines(keepends=True))
        (out / f"{name}.jsonl").write_text("".join(got))
        if args.update:
            (GOLDEN / f"{name}.jsonl").write_text("".join(got))
            continue
        want = (GOLDEN / f"{name}.jsonl").read_text().splitlines(keepends=True)
        if got != want:
            explain(name, want, got)
            failed.append(name)
    if args.update:
        print("golden sweeps written:", ", ".join(SWEEPS))
        return 0
    if failed:
        print("golden sweeps differ:", ", ".join(failed))
        return 1
    print("golden sweeps ok:", ", ".join(SWEEPS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
