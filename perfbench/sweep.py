#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out parent.jsonl [--workloads a,b]

Run from the repository root. Each run appends one line to --out (the format
perfbench/compare.py reads). For every workload and end-to-end metric it
prints the median, the interquartile distance as a share of the median
(`spread`), and that spread as a share of the metric's bound in
BENCHMARK.json; setup_s is exempt from the spread rule but listed.
"""

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(records, bench):
    """Prints one row per (workload, end-to-end metric) of untraced records;
    returns False when a spread exceeds its bound."""
    values = defaultdict(list)
    for rec in records:
        if rec["trace"] == 0:
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
    steady = True
    print(f"{'workload':<16} {'metric':<22} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'of bound':>8}")
    for metric in bench["end_to_end"]:
        for workload in bench["workloads"]:
            vals = values.get((workload["name"], metric["name"]))
            if not vals:
                continue
            _, med, _ = benchlib.quartiles(vals)
            spread = benchlib.spread(vals)
            share = spread / metric["bound"]
            if metric["name"] != "setup_s" and share > 1:
                steady = False
            print(f"{workload['name']:<16} {metric['name']:<22} {len(vals):>4} "
                  f"{med:>12.6g} {spread:>8.4f} {share:>8.2f}")
    return steady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = benchlib.load_benchmark(Path.cwd())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    here = Path(__file__).resolve().parent
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, str(here / "run.py"), "--workload", name,
                   "--seed", str(seed), "--trace", "0", "--record", str(args.out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:120]}",
                  flush=True)
            if proc.returncode != 0:
                return 1
    with open(args.out, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if r["workload"] in names]
    return 0 if summarize(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
