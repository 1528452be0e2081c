#!/usr/bin/env python3
"""Build and run the eal repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
standalone CMake package in perfbench/ (the eal libraries from src/ plus the
`perfbench` binary) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line on stdout is the binary's JSON result.
With --trace 1 the run's spans are written, once at the end, as a Chrome
trace to spans-<workload>.json in the same build directory.

--self-test checks the benchmark itself. perfbench/README.md describes the
workloads, the metrics and the checks.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["escape_chain", "nested_types", "sort_gc", "small_paper"]
# Per-layer counts that depend on a workload's program shape only, never on
# the seeded list values.
SHAPE_METRICS = ["escape.fixpoint_rounds", "opt.plan_directives",
                 "vm.instructions"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the binary, returning (exit code, parsed last stdout line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def self_test(binary):
    failures = []
    if subprocess.call([binary, "--self-test"]) != 0:
        failures.append("reference self-test")

    code, result = run_binary(binary, ["--workload", "small_paper", "--seed",
                                       "3", "--seconds", "1", "--trace", "0",
                                       "--corrupt-reference"])
    if code == 0 or not result or result["correct"] or result["failed"] == 0:
        failures.append("a corrupted reference was not reported")
    else:
        print("corrupted reference: error_rate %.3f, exit code %d"
              % (result["failed"] / result["attempted"], code))

    for workload in WORKLOADS:
        shapes = []
        for seed in ("1", "2"):
            code, result = run_binary(binary, ["--workload", workload,
                                               "--seed", seed, "--seconds",
                                               "1", "--trace", "1"])
            if code != 0 or not result or not result["correct"]:
                failures.append("%s seed %s traced run failed" %
                                (workload, seed))
                break
            shapes.append({m: result["metrics"][m]["value"]
                           for m in SHAPE_METRICS})
        if len(shapes) == 2 and shapes[0] != shapes[1]:
            failures.append("%s shape counts differ between seeds: %s"
                            % (workload, shapes))
        elif len(shapes) == 2:
            print("%s: shape counts equal across seeds %s"
                  % (workload, shapes[0]))

    for failure in failures:
        print("self-test FAILED: " + failure, file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if not binary:
        return 3
    if args.self_test:
        return self_test(binary)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(build_dir(),
                                        "spans-%s.json" % args.workload)]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
