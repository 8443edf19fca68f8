#!/usr/bin/env python3
"""Build and run one workload of the layered benchmark.

    python3 perfbench/run.py --workload <fusedmm-er|fusedmm-rmat|als-serve> \
        --seed <n> --seconds <s> --trace <0|1> [--r <width>]

Run from the root of a source checkout. The first run configures and
builds the library and the benchmark binary under .bench_build/perfbench
(later runs only re-check the build). The binary's output is passed
through; its last line is the result JSON object. With --trace 1 the
Chrome trace-event JSON of the run is written to
.bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench_layers")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build the benchmark target; build output goes
    to stderr so stdout ends with the result line."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_layers", "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return True


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return False
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return False
    for metric in res["metrics"].values():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--r", type=int, default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--r", str(args.r)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        suffix = "" if args.r == 0 else "-r%d" % args.r
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d%s.json" % (args.workload, args.seed, suffix))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print("perfbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
