#!/usr/bin/env python3
"""Builds and runs the end-to-end query-answering benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark from source with optimizations on (in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs one
workload. The last line of stdout is the benchmark's JSON result; the exit
code is the benchmark's (non-zero on a wrong answer or a failed build).
Workloads and metrics are defined in perfbench/e2e_bench.cc and listed in
BENCHMARK.json and perfbench/workloads.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at ./src; run from the root "
                 "of the repository")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] +
                     targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build(["e2e_bench"])
    command = [os.path.join(out, "e2e_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
