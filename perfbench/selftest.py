#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark at the tiny scale, untraced and
traced, and checks that the result line names exactly the metrics
BENCHMARK.json lists for that kind of run, each with its unit, that no
check failed and no trial or certification failed.  It also checks that
a repeat of the same seed reproduces the exact-count digest, that the
torture workloads' deterministic report is byte-identical to the one
`detect_cli torture` prints for the same campaign, and that the
benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 5
SECONDS = 1
CLI_SHAPES = {"torture_cas": ["-o", "dcas", "-p", "4", "-k", "8"],
              "torture_queue": ["-o", "dqueue", "-p", "3", "-k", "3"]}
TINY_TRIALS = 150
OUT_DIR = ".perfbench_run"

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def bench(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    check(done.returncode == 0, "%s trace=%d exited %d" % (workload, trace, done.returncode))
    result = json.loads(lines[-1]) if lines else {}
    digests = [l for l in lines if l.startswith("exact-digest ")]
    return result, digests


def check_result(workload, trace, result, expected):
    tag = "%s trace=%d" % (workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys %s" % sorted(result))
    check(result.get("correct") is True, tag + ": a check failed")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          tag + ": attempted %r" % result.get("attempted"))
    check(result.get("failed") == 0, tag + ": failed %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    check(set(metrics) == set(expected),
          tag + ": metric names differ from BENCHMARK.json: %s"
          % sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        check(m.get("unit") == unit, "%s: %s has unit %r, not %r"
              % (tag, name, m.get("unit"), unit))
        v = m.get("value")
        check(isinstance(v, (int, float)), "%s: %s value %r" % (tag, name, v))
        if trace == 0:
            check(isinstance(v, (int, float)) and v > 0,
                  "%s: end-to-end metric %s is %r" % (tag, name, v))


def check_cli_report(workload):
    exe = os.path.join(".bench_build", "default", "bin", "detect_cli.exe")
    cmd = [exe, "torture"] + CLI_SHAPES[workload] + [
        "-s", str(SEED), "--trials", str(TINY_TRIALS), "--json", "--no-timing"]
    cli = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    path = os.path.join(OUT_DIR, "report-%s-tiny-s%d-seed%d.json"
                        % (workload, SECONDS, SEED))
    with open(path) as f:
        ours = f.read()
    check(cli.returncode == 0 and cli.stdout == ours,
          "%s: report differs from `detect_cli torture %s`"
          % (workload, " ".join(CLI_SHAPES[workload])))


def check_bare_directory():
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torture_cas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    check(done.returncode != 0 and done.stdout.strip() == "",
          "the benchmark ran in a directory without the sources")
    shutil.rmtree(bare)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    tables = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        workload = w["name"]
        digests = []
        for trace in (0, 1, 0):
            result, d = bench(workload, trace)
            check_result(workload, trace, result, tables[trace])
            digests += d
        check(len(digests) == 3 and len(set(digests)) == 1,
              "%s: exact-count digests differ across runs of one seed: %s"
              % (workload, digests))
        if workload in CLI_SHAPES:
            if not os.path.exists(os.path.join(".bench_build", "default", "bin",
                                               "detect_cli.exe")):
                subprocess.run(["dune", "build", "--root", ".", "--build-dir",
                                ".bench_build", "--profile", "release",
                                "--cache", "disabled", "./bin/detect_cli.exe"],
                               check=True)
            check_cli_report(workload)
        print("%s: done" % workload)
    check_bare_directory()
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
