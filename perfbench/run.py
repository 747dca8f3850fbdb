#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The program (perfbench/muxbench.cc) is compiled together with the
simulator's libraries from src/ in a Release build under the directory
named by $CARGO_TARGET_DIR (default .bench_build), so the first run in a
checkout also pays for the build. Build output goes to stderr; the last
line of stdout is the program's JSON result. The exit code is the
program's, or non-zero when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("agent-fleet", "short-stream", "agent-goodput",
             "conv-burst-overload", "all")
# A workload's run takes --seconds of timed drives plus a cold set-up, a
# warm-up drive, the overrun of its last drive and, traced, the probes and
# replays; none of those takes this long on one CPU.
RUN_MARGIN_S = 120
BUILD_TIMEOUT_S = 840


def build(root, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        print("run.py: cmake not found", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        [cmake, "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", build_dir, "--target", "muxbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            print("run.py: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "muxbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "muxbench")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    runs = len(WORKLOADS) - 1 if args.workload == "all" else 1
    timeout = runs * (args.seconds + RUN_MARGIN_S)
    sys.stdout.flush()
    with subprocess.Popen(cmd, cwd=root) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("run.py: benchmark timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
