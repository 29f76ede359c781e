#!/usr/bin/env python3
"""Steadiness report: one workload run untraced with seeds 1..N, one run each.

Run from the repository root:

    python3 perfbench/steadiness.py --workload sql-rmat1k --runs 10 --seconds 30

For every metric the report prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. With BENCHMARK.json present
the spread is compared with the metric's bound. The last line of standard
output is the report as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run with seed %d failed" % seed)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"]:
            raise SystemExit("seed %d: incorrect answers" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    limits = bounds()
    report = {}
    print("%-28s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limits.get(name)
        report[name] = {"unit": units[name], "median": med, "q1": q1,
                        "q3": q3, "spread": spread, "bound": bound,
                        "values": vals}
        print("%-28s %14.6g %14.6g %14.6g %7.2f%% %6s" %
              (name, med, q1, q3, spread * 100,
               "-" if bound is None else "%.2f" % bound))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "metrics": report}))


if __name__ == "__main__":
    sys.exit(main())
