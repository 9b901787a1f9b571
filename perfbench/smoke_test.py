#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced, and checks that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  - the run is correct, attempted at least one operation and failed none;
  - an untraced run prints every end-to-end metric exactly once, with the
    unit BENCHMARK.json gives it, and a traced run every per-layer metric.

Run from the repository root:  python3 perfbench/smoke_test.py
"""

import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correct is %r" % (where, result.get("correct")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    if result.get("failed") != 0:
        errors.append("%s: failed %r" % (where, result.get("failed")))
    # Each metric is printed once on a "# metric" line and once in the JSON.
    printed = [l.split()[2] for l in lines if l.startswith("# metric ")]
    for name, unit in expected.items():
        if printed.count(name) != 1:
            errors.append("%s: %s printed %d times" %
                          (where, name, printed.count(name)))
        got = result.get("metrics", {}).get(name)
        if got is None:
            errors.append("%s: %s missing from the result" % (where, name))
        elif got.get("unit") != unit or not isinstance(got.get("value"),
                                                       (int, float)):
            errors.append("%s: %s is %r, want unit %s" % (where, name, got, unit))
    extra = set(result.get("metrics", {})) - set(expected)
    if extra:
        errors.append("%s: unexpected metrics %s" % (where, sorted(extra)))
    return errors


def main():
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for w in spec["workloads"]:
        errors += check_run(w["name"], 0, e2e)
        errors += check_run(w["name"], 1, layers)
    for e in errors:
        print("FAIL", e)
    print("smoke test: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
