#!/usr/bin/env python3
"""Builds and runs the EUCON end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (it finds the root from its own path). It
builds the library from src/ and the harness from perfbench/ into
.bench_build/perfbench (CMake, Ninja when installed), runs the harness's
self-tests, then runs one workload and forwards the harness's output. The
last line of stdout is the harness's JSON result; run.py checks its shape
against BENCHMARK.json before printing it. Build output goes to stderr.

Exit status: the harness's (0 = every check passed), or non-zero without a
result line when the build, the self-tests or the result's shape fail.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "eucon_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The harness stops measuring by 150 s; this is the backstop.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def child_env():
    """The environment of every child: temporary files stay in the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_to_stderr(cmd):
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def configured_source():
    """The source directory an existing build tree was configured from."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "eucon", "experiment.h")):
        fail("the library sources (src/) are missing next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if configured_source() not in (None, HERE):
            shutil.rmtree(BUILD)  # configured from another checkout
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None and not os.path.isfile(
                os.path.join(BUILD, "Makefile")):
            configure[1:1] = ["-G", "Ninja"]
        if run_to_stderr(configure) != 0:
            fail("cmake configure failed")
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        if run_to_stderr(["cmake", "--build", BUILD, "-j", jobs]) != 0:
            fail("build failed")
    if run_to_stderr([SELFTEST]) != 0:
        fail("benchmark self-tests failed")


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this pass, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the harness printed no JSON result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("result keys are not %s" % sorted(RESULT_KEYS))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            fail(key + " is not a non-negative whole number")
    if result["attempted"] < 1:
        fail("attempted is below 1")
    if not isinstance(result["metrics"], dict):
        fail("metrics is not an object")
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s has no finite value" % name)
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: %s" %
                 sorted(set(got.items()) ^ set(expected.items())))


def main():
    args = parse_args()
    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(BUILD, "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        report = "\n".join(l for l in lines if l and not l.startswith("{"))
        if report:
            print(report)
        fail("the harness exited with status %d" % proc.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
