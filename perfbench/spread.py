#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, seed by seed.

    python3 perfbench/spread.py [--runs 10] [--seconds 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE.json]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on
each workload and prints, per metric, the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound from BENCHMARK.json. --out keeps every run's
result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    ok = True
    for name in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            if done.returncode != 0:
                print("%s seed %d: exit %d" % (name, seed, done.returncode))
                ok = False
                continue
            results.append(json.loads(done.stdout.rstrip("\n").split("\n")[-1]))
        record[name] = results
        if len(results) < 2:
            continue
        print("%s (%d runs)" % (name, len(results)))
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            flag = "" if share <= bound / 3 else "  > bound/3"
            print("  %-16s median %12.4f  iqr/median %.4f  bound %.2f%s"
                  % (metric, med, share, bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
