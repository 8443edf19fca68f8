#!/usr/bin/env python3
"""Sensitivity check: can the benchmark see a change of the size later
changes will claim?

    python3 perfbench/sensitivity.py [--runs 3] [--seconds S]

Runs fusedmm-er at its own width (r = 128) and at half the width
(r = 64), interleaved, --runs times each, untraced (end-to-end) and
traced (per-layer). Halving r halves the kernel work, so
dist.computation_ms and local.fusedmm_a_ms should fall roughly in
proportion, dist.outside_phases_ms (scatter, gather, world entry and the
plan fingerprint, partly width-independent) should fall less, and the
end-to-end latency change should exceed its bound in BENCHMARK.json.
Exits 1 when any of the three does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIDTHS = (128, 64)


def run(r, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "fusedmm-er", "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--r", str(r)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT, check=True)
    res = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {r: [] for r in WIDTHS}
    for seed in range(1, args.runs + 1):
        for r in WIDTHS:
            metrics = run(r, seed, args.seconds, 0)
            metrics.update(run(r, seed, args.seconds, 1))
            samples[r].append(metrics)

    def med(r, name):
        return statistics.median(m[name] for m in samples[r])

    names = ["latency_p50_ms", "requests_per_s", "dist.computation_ms",
             "local.fusedmm_a_ms", "dist.replication_ms",
             "dist.outside_phases_ms"]
    print("%-24s %12s %12s %8s" % ("metric", "r=128", "r=64", "ratio"))
    ratio = {}
    for name in names:
        full, half = med(128, name), med(64, name)
        ratio[name] = half / full
        print("%-24s %12.3f %12.3f %8.3f" % (name, full, half, ratio[name]))

    checks = [
        ("dist.computation_ms and local.fusedmm_a_ms fall roughly in "
         "proportion to r (ratios within 0.35..0.75)",
         all(0.35 <= ratio[n] <= 0.75
             for n in ("dist.computation_ms", "local.fusedmm_a_ms"))),
        ("dist.outside_phases_ms falls less than dist.computation_ms",
         ratio["dist.outside_phases_ms"] > ratio["dist.computation_ms"]),
        ("latency_p50_ms change exceeds its bound (%.2f)"
         % bounds["latency_p50_ms"],
         1 - ratio["latency_p50_ms"] > bounds["latency_p50_ms"]),
    ]
    ok = True
    for what, held in checks:
        print("%-4s %s" % ("ok" if held else "FAIL", what))
        ok = ok and held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
