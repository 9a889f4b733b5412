#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (a few seconds in all).

    python3 perfbench/selftest.py

Run from the repository root. It checks that:
  * every workload, untraced and traced, passes its output checks;
  * every run prints exactly the metrics BENCHMARK.json declares for its
    mode, each with the declared unit: every untraced run measures every
    `end_to_end` metric, and every `per_layer` metric is measured by the
    traced run of at least one workload (the others read 0, listed in the
    record's `not_measured`);
  * every name is well formed;
  * a deliberately corrupted check input shows up as a failed op.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in [w["name"] for w in bench["workloads"]] + list(declared[0]) + list(declared[1]):
        if not NAME.match(name):
            sys.exit(f"FAIL malformed name {name!r}")

    for trace in (0, 1):
        seen = set()
        for w in bench["workloads"]:
            rec, res = run(w["name"], trace)
            if not res["correct"] or res["failed"] != 0:
                sys.exit(f"FAIL {w['name']} trace {trace}: clean run reported {res['failed']} failed ops")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            if units != declared[trace]:
                sys.exit(f"FAIL {w['name']} trace {trace}: metrics {units} differ from BENCHMARK.json")
            if rec["not_measured"] and not trace:
                sys.exit(f"FAIL {w['name']}: end-to-end metrics not measured: {rec['not_measured']}")
            measured = set(units) - set(rec["not_measured"])
            seen |= measured
            print(f"ok  {w['name']:22} trace {trace}: {len(measured)} metrics measured, {res['attempted']} ops")
        missing = sorted(set(declared[trace]) - seen)
        if missing:
            sys.exit(f"FAIL trace {trace}: declared but never printed: {missing}")

    for w in bench["workloads"]:
        for trace in (0, 1):
            _, res = run(w["name"], trace, "--corrupt")
            if res["correct"] or res["failed"] < 1:
                sys.exit(f"FAIL {w['name']} trace {trace}: corrupted check input was not a failed op")
            print(f"ok  {w['name']:22} trace {trace}: corrupted input -> {res['failed']} failed op(s)")
    print("selftest passed")


if __name__ == "__main__":
    main()
