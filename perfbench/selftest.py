#!/usr/bin/env python3
"""Self-test of the XPro benchmark, in its tiny smoke configuration.

    python3 perfbench/selftest.py

Checks, for every workload of the harness (serve too, which
BENCHMARK.json does not time):
  * an untraced run emits exactly BENCHMARK.json's end-to-end metrics
    and a traced run exactly its per-layer metrics, each with the
    unit BENCHMARK.json names, with 0 failed operations;
  * a run with a deliberately corrupted output (--corrupt) counts it
    as a failed operation and reports correct = false;
and that run.py exits non-zero without printing a result when the
library sources are absent. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["design", "adaptive_day", "population", "serve"]


def fail(message):
    sys.exit("selftest FAILED: " + message)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        fail("%s trace=%d %s exited %d" % (workload, trace, extra,
                                           proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("%s: metrics %s, expected %s" % (label, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (label, name))


def bare_checkout_fails():
    """run.py must refuse a tree holding only the benchmark files."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "design", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded or printed a result without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in WORKLOADS:
        plain = run(workload, 0)
        expect_metrics(plain, bench["end_to_end"], workload + " untraced")
        traced = run(workload, 1)
        expect_metrics(traced, bench["per_layer"], workload + " traced")
        for label, r in (("untraced", plain), ("traced", traced)):
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                fail("%s %s: %s" % (workload, label, r))
        corrupted = run(workload, 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            fail("%s: corrupted output not counted as failed: %s" %
                 (workload, corrupted))
        print("selftest %s: ok (%d + %d operations, corruption caught)"
              % (workload, plain["attempted"], traced["attempted"]),
              flush=True)
    bare_checkout_fails()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
