#!/usr/bin/env python3
"""Build and run the engine benchmark for one workload.

    python3 perfbench/run.py --workload enact --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's src/ tree) under .bench_build/;
later runs only rebuild what changed. Build output goes to stderr. The
harness binary runs as a child process of its own, so each workload's RSS
and set-up time start from nothing. The last line of stdout is the result
JSON: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the build fails, when any output check fails, or when the
result is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "engine_bench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "engine_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def check_result(line, spec, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys " + str(sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        missing = sorted(set(m["name"] for m in wanted) ^ set(metrics))
        raise ValueError("metric names differ from BENCHMARK.json: " + ", ".join(missing))
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            raise ValueError("metric %s: %r" % (m["name"], got))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload " + args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ tree next to perfbench/; nothing to build")
    build()

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: engine_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        sys.stdout.flush()
        sys.exit("run.py: engine_bench exited with %d" % done.returncode)
    try:
        result = check_result(lines[-1], spec, args.trace == 1)
    except (ValueError, KeyError) as error:
        sys.exit("run.py: malformed result: %s" % error)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
