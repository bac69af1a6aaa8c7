#!/usr/bin/env python3
"""Repository benchmark.

Builds perfbench/main.exe from source (dune, release profile) and runs
one workload of BENCHMARK.json:

    python3 perfbench/run.py --workload sim-star-4k --seed 1 --seconds 20 --trace 0

Run it from the repository root.  `--workload all` runs every workload
in turn.  With `--trace 0` the result carries the end-to-end metrics,
with `--trace 1` the per-layer metrics of a separate traced run.  Human
readable lines (one per metric, and one per failed output check) come
first; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when the build and the run succeeded.
"""

import argparse
import json
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache=disabled", "./perfbench/main.exe"]
    try:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail(f"build failed (exit {done.returncode})")


def run_one(bench, defined_on, workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: exit {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not a result: {lines[-1]!r}")

    # Exactly the metrics BENCHMARK.json lists for this kind of run.  A
    # traced run must carry every per-layer metric, so one that the
    # workload does not define (perfbench/mapping.json) reads 0: a
    # filler, not a measurement.
    wanted = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    correct = bool(raw["correct"])
    metrics = {}
    for m in wanted:
        name = m["name"]
        got = raw["metrics"].get(name)
        if trace == 1 and workload not in defined_on[name]:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        elif got is None or got["value"] is None:
            print(f"check failed: metric {name} not measured")
            correct = False
        else:
            metrics[name] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = load_json("BENCHMARK.json")
    mapping = load_json(os.path.join("perfbench", "mapping.json"))
    defined_on = {k: v["workloads"] for k, v in mapping["layer_metrics"].items()}
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of: all, {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    t0 = time.monotonic()
    build()
    print(f"perfbench: built in {time.monotonic() - t0:.1f} s", file=sys.stderr)

    if args.workload != "all":
        result = run_one(bench, defined_on, args.workload, args.seed, seconds,
                         args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            print(f"== {name}")
            r = run_one(bench, defined_on, name, args.seed, seconds, args.trace)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][f"{name}/{k}"] = v
    print(json.dumps(result))


if __name__ == "__main__":
    main()
