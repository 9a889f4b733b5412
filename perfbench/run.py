#!/usr/bin/env python3
"""Build and run the benchmark: one workload, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (a Cargo package of its own in
this directory) is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then run with the same arguments. Standard output ends
with two lines: the run's record (provenance, sample counts, checks) and
the result object `{"correct", "attempted", "failed", "metrics"}`. Any
build or run failure exits non-zero without printing a result.

The result holds every metric BENCHMARK.json declares for the mode: all
`end_to_end` metrics with `--trace 0`, all `per_layer` metrics with
`--trace 1`. A workload must measure every end-to-end metric itself. A
per-layer metric the workload's traced run does not measure reads 0 and is
listed in the record's `not_measured`: its layer is not on the workload's
path (the simulator on the controller workloads, the controller on
`federated_sharded`, ...) or runs only inside a call the benchmark cannot
time from outside (the overlay inside `lastmile_closed_loop`'s in-loop
controller).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the harness builds from (stands in for the
    commit id when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    git = os.path.exists(os.path.join(ROOT, ".git"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "build_profile": "release",
        "commit": command_output(["git", "rev-parse", "HEAD"]) if git else "unknown",
        "source_digest": source_digest(),
    }


def valid_result(obj):
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        return False
    if not isinstance(obj["correct"], bool):
        return False
    if not all(isinstance(obj[k], int) and not isinstance(obj[k], bool) for k in ("attempted", "failed")):
        return False
    if obj["attempted"] < 1 or not isinstance(obj["metrics"], dict) or not obj["metrics"]:
        return False
    return all(
        isinstance(m, dict) and set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
        for m in obj["metrics"].values()
    )


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def complete(result, trace):
    """Check the harness's metrics against BENCHMARK.json and, for a traced
    run, add the per-layer metrics it did not measure as 0. Returns the
    names added."""
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail(f"metric {name} [{m['unit']}] is not declared so in BENCHMARK.json")
    absent = [name for name in declared if name not in metrics]
    if absent and not trace:
        fail(f"end-to-end metrics not measured: {absent}")
    result["metrics"] = {
        name: metrics.get(name, {"value": 0.0, "unit": unit}) for name, unit in declared.items()
    }
    return absent


def main():
    if "--trace" not in sys.argv[1:-1]:
        fail("--trace <0|1> is required")
    trace = sys.argv[sys.argv.index("--trace", 1) + 1] == "1"
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.exists(os.path.join(ROOT, "crates")):
        fail("run from a full checkout of the repository (crates/ is missing)")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"harness exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("harness printed no result")
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unparsable harness output: {e}")
    if "record" not in record or not valid_result(result):
        fail("harness output does not match the result format")
    record["record"]["not_measured"] = complete(result, trace)
    record["record"].update(provenance())
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
