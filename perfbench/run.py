#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload full_sweep --seed 1 --seconds 10 --trace 0

Workloads: full_sweep, incremental_day (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics (and
writes spans and layer files under --out, default .bench_out). The last line of
standard output is the run's JSON result. The exit code is 0 only when the run
completed and every output check passed.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (span recorder, counting hooks,
layer-diff tool).

The build goes to .bench_build/ (CMake, RelWithDebInfo, 4 jobs); build output
goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("full_sweep", "incremental_day")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    binary = build("perfbench")
    out_dir = os.path.join(ROOT, args.out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" %
             (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail("workload %s printed no result (exit code %d)" %
             (args.workload, done.returncode))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    expected = declared_metrics(args.trace == 1)
    if expected is not None:
        got = set(result.get("metrics", {}))
        if got != expected:
            problems.append("metrics missing %s, undeclared %s" %
                            (sorted(expected - got), sorted(got - expected)))
    if done.returncode != 0 and result.get("correct"):
        problems.append("exit code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    if problems:
        for problem in problems:
            print("CHECK FAILED [%s]: %s" % (args.workload, problem))
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result.get("correct") and done.returncode == 0 else 1


def run_selftest():
    binary = build("perfbench_selftest")
    status = subprocess.run([binary], cwd=ROOT).returncode
    status |= subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "-q", "test_layer_diff"],
        cwd=HERE).returncode
    return 0 if status == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out",
                        help="trace output directory, relative to the root")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
