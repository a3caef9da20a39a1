#!/usr/bin/env python3
"""The repository benchmark's entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload torture_cas --seed 1 --seconds 15 --trace 0

It builds perfbench/perfbench.exe from source into .bench_build (release
profile, dune's shared cache off, so nothing is written outside the
checkout), runs one fixed-work run of the named workload, forwards the
binary's report lines and prints the JSON result as the last line of
standard output.  Workloads, metrics and the design are described in
perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("torture_cas", "torture_queue", "certify_cas")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here: run from the root of a source checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=700)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed", done.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's minimal sizes")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        fail("run timed out", 3)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("run failed (exit %d)" % done.returncode, done.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("the run printed no result line", 4)
    if set(result) != RESULT_KEYS:
        fail("malformed result keys: %s" % sorted(result), 4)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
