#!/usr/bin/env python3
"""Builds the fielddb benchmark driver from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine and the driver are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Each run works in a fresh scratch directory that is removed afterwards;
a traced run keeps its spans in <build dir>/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(root, target, "perfbench")
    build_dir = os.path.join(build_root, "cmake")
    os.makedirs(build_dir, exist_ok=True)

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if step(["cmake", "-S", bench_dir, "-B", build_dir]) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return 1
    if step(["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", "4"]) != 0:
        return 1

    work = os.path.join(build_root, "run-%d" % os.getpid())
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--dir", work, "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{\"correct\""):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
