#!/usr/bin/env python3
"""Builds the with+ benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mv-er64k --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root) as a Release build; later runs rebuild only
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. With --trace 1 the spans of
the traced run are written next to the build as trace-<workload>-seed<n>.jsonl.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840  # the first run in a fresh checkout compiles everything
# The run measures for --seconds and also sets up, warms up, computes the
# native answers and (with --trace 1) runs the probes; that takes about as
# long again as the timed part, plus a fixed allowance.
RUN_ALLOWANCE_S = 100


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none(not-a-git-checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found under " + ROOT,
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time: cheap when the cache exists, and CMake refuses a
    # build directory that another source tree configured, so a run never
    # builds and times some other checkout's sources.
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"),
              "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build step failed: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    timeout_s = 2 * args.seconds + RUN_ALLOWANCE_S
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %g s" % timeout_s, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
