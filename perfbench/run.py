#!/usr/bin/env python3
"""Argus benchmark: build the driver from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campus_l1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The driver and the library it links are built with CMake into
$CARGO_TARGET_DIR (default .bench_build, relative to the checkout) on
first use. Build output goes to standard error; the last line of standard
output is the JSON result. The metric names it reports are checked
against BENCHMARK.json, and the exit code is nonzero on a failed build, a
wrong service or a metric mismatch.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", out, "--target", "argus_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build failed: %s" % err, file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(out, "argus_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 2
    if args.self_test:
        cmd = [exe, "--self-test"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if args.self_test or done.returncode != 0:
        sys.stdout.write(done.stdout)
        return done.returncode

    want = expected_metrics(args.trace)
    try:
        got = list(json.loads(done.stdout.splitlines()[-1])["metrics"])
    except (IndexError, KeyError, ValueError):
        print("perfbench: the driver printed no result line", file=sys.stderr)
        return 4
    if want is not None and got != want:
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (got, want), file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
