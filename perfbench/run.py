#!/usr/bin/env python3
"""The setsched benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prove-small --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench_driver (Release) into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs the workload's
closed loop through it, prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with --trace 1
its per_layer ones. Exits 1 when an output check failed, 2 on a usage or
build error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

# Every run must end within 180 s, and a run that compiles within 900 s.
RUN_DEADLINE_S = 175.0
BUILD_RUN_DEADLINE_S = 895.0
BUILD_TIMEOUT_S = 820.0
# A build step slower than this compiled something.
NO_OP_BUILD_S = 5.0


class BenchError(Exception):
    pass


def build_dir(root):
    return Path(root) / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(root):
    """Configures (once) and builds perfbench_driver; returns its path."""
    root = Path(root)
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"no setsched source tree at {root}")
    out = build_dir(root)
    deadline = time.monotonic() + BUILD_TIMEOUT_S

    def step(cmd):
        left = deadline - time.monotonic()
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=left)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")

    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    step(["cmake", "--build", str(out), "--target", "perfbench_driver",
          "--parallel", "4"])
    return out / "perfbench_driver"


def driver_command(binary, workload, args, spans_path):
    cmd = [str(binary), "--solver", workload["solver"],
           "--preset", workload["preset"],
           "--budget-s", str(workload["budget_s"]),
           "--pool", str(workload["pool"]),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if workload["certified"]:
        cmd.append("--certified")
    if workload["config_root"]:
        cmd.append("--config-root")
    if args.trace and workload["cross_check"]:
        cmd += ["--cross-check", workload["cross_check"]]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    return cmd


def run_driver(cmd, deadline):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"perfbench_driver exited with {proc.returncode}")
    return json.loads(proc.stdout)


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def report(name, args, out, bench, spec_units):
    """Prints the human-readable lines; returns the result object and the
    metrics that are not in BENCHMARK.json (None in a traced run)."""
    samples = out["samples"]
    failed = sum(1 for s in samples if s["error"])
    for s in samples:
        if s["error"]:
            print(f"FAILED instance seed {s['seed']}: {s['error']}")
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"solves {len(samples)}  pool {out['pool']}")
    if args.trace:
        metrics, extra = benchlib.per_layer(out), None
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"  spans written to {out['spans_path']}")
    else:
        metrics, extra = benchlib.end_to_end(out)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        tail = extra["solve_ms_tail"]
        if tail is None:
            print(f"  {'solve_ms_tail':<34} omitted: {extra['solve_ms_samples']} "
                  f"samples, no percentile has {benchlib.TAIL_MIN_BEYOND} beyond it")
        else:
            print(f"  {'solve_ms_tail':<34} {fmt(tail)} ms  "
                  f"({extra['solve_ms_tail_percentile']}, "
                  f"{extra['solve_ms_samples']} samples)")
        for key in ("gap_mean", "proven_frac", "failed_frac"):
            print(f"  {key:<34} {fmt(extra[key])} {spec_units[key]['unit']}")
    for key, value in metrics.items():
        print(f"  {key:<34} {fmt(value)} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, extra


def main(argv=None):
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also append the result as one JSON line here")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = benchlib.load_spec()
        bench = benchlib.load_benchmark(root)
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; known: "
                             + " ".join(spec["workloads"]))
        workload = spec["workloads"][args.workload]
        if args.seed is None:
            args.seed = workload["default_seed"]
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.seed < 1 or args.seconds <= 0:
            raise BenchError("--seed must be >= 1 and --seconds > 0")
        binary = build(root)
        built = time.monotonic() - start > NO_OP_BUILD_S
        deadline = start + (BUILD_RUN_DEADLINE_S if built else RUN_DEADLINE_S)
        spans_path = build_dir(root) / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        out = run_driver(driver_command(binary, workload, args, spans_path),
                         deadline)
        out["spans_path"] = str(spans_path)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if not out["samples"]:
        print("perfbench: no solve finished inside the run", file=sys.stderr)
        return 2
    result, extra = report(args.workload, args, out, bench, spec["extra_metrics"])
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result,
                                "extra": extra}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
