#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/test.py

1. helpers_test: the tail-percentile rule, the row fingerprint and the
   update-delta generator (perfbench/helpers_test.cc).
2. The workload and metric names (and units) in BENCHMARK.json, and the
   workload records in perfbench/workloads.json, equal what the benchmark
   defines (`e2e_bench --describe`).
3. The metric names the command prints on a short run, untraced and
   traced, equal the end_to_end and per_layer names in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def names(entries):
    return [(e["name"], e.get("unit")) for e in entries]


def main():
    out = run.build(["e2e_bench", "helpers_test"])
    check(subprocess.run([os.path.join(out, "helpers_test")]).returncode == 0,
          "helpers_test passes")

    described = json.loads(subprocess.run(
        [os.path.join(out, "e2e_bench"), "--describe"], check=True,
        capture_output=True, text=True).stdout)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "workloads.json")) as f:
        recorded = json.load(f)

    check([w["name"] for w in bench["workloads"]] ==
          [w["name"] for w in described["workloads"]],
          "BENCHMARK.json workload names equal the benchmark's")
    check(names(bench["end_to_end"]) == names(described["end_to_end"]),
          "BENCHMARK.json end_to_end names and units equal the benchmark's")
    check(names(bench["per_layer"]) == names(described["per_layer"]),
          "BENCHMARK.json per_layer names and units equal the benchmark's")
    check(recorded == described,
          "perfbench/workloads.json equals `e2e_bench --describe`")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in [w["name"] for w in bench["workloads"]]:
            result = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True)
            lines = result.stdout.strip().splitlines()
            printed = json.loads(lines[-1]) if lines else {}
            check(result.returncode == 0 and printed.get("correct") is True,
                  "%s --trace %d runs and answers correctly" %
                  (workload, trace))
            check([(n, m["unit"]) for n, m in
                   printed.get("metrics", {}).items()] ==
                  names(bench[key]),
                  "%s --trace %d prints exactly the %s metrics" %
                  (workload, trace, key))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
