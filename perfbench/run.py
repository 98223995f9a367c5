#!/usr/bin/env python3
"""Builds and runs the rt3 host-time benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library and the benchmark from source into .bench_build/ (Release);
later calls only rebuild what changed.  Build output goes to stderr, so
the last line on stdout is the run's JSON result, checked here against
the metric names and units BENCHMARK.json declares.  Traced runs write
their spans to .bench_build/traces/<workload>-seed<N>.json.

Exit codes: 0 result printed, 1 build/run/validation failure, 2 bad
arguments or no rt3 source tree next to this directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}", 2)


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        die(f"no rt3 source tree under {ROOT}/src", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd), 1)
    return os.path.join(BUILD, target)


def validate(result, spec, traced):
    """Returns an error string, or None when `result` has the expected form."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"unexpected {extra}, wrong unit {wrong}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary]).returncode)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {names}", 2)
    if args.seed is None or args.seed < 0 or args.seconds is None \
            or args.seconds < 1 or args.trace is None:
        die("--seed N (>= 0), --seconds S (>= 1) and --trace 0|1 are required", 2)

    binary = build("rt3_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    error = validate(result, spec, bool(args.trace))
    print("\n".join(lines[:-1]))
    if error is not None:
        die(error, 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
