#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload <cold_translate|append_mix>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library sources and the runner into .bench_build/ (Release); later runs
reuse that build. The runner's output is passed through; its last line is
the result JSON. The exit code is non-zero when the build fails, an output
check fails, or the result does not carry the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_translate", "append_mix")


def run_timeout_s(seconds):
    """The runner's limit. Its work grows with --seconds: up to about 1.7 s
    of work per second asked, on a slow host. The traced suite is fixed
    work of 30-45 s."""
    return max(150, 4 * seconds)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, when present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    scratch = os.path.join(ROOT, ".bench_build", "scratch-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % timeout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("runner exited %d without a result line" % run.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ expected))
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
