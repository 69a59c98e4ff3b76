#!/usr/bin/env python3
"""Builds and runs the repository's two-clock benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mqfs_fsync --seed 1 --seconds 20 --trace 0

Workloads: mqfs_fsync, mqfs_varmail, crash_explore; nvlog_varmail also runs,
but is not in BENCHMARK.json (see perfbench/README.md).
The first run configures and builds perfbench (the repository's libraries
from src/ plus perfbench/perfbench.cc, Release) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
Build output goes to stderr. The benchmark's report goes to stdout, whose
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build fails, the run fails or
any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mqfs_fsync", "mqfs_varmail", "nvlog_varmail", "crash_explore")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(out_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(span_dir, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {args.workload} failed (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    return proc.returncode if result.get("correct") is True else max(proc.returncode, 1)


if __name__ == "__main__":
    sys.exit(main())
