#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise each metric's spread.

    python3 perfbench/record.py [--workloads design,adaptive_day]
                                [--runs 10] [--first-seed 1] [--seconds S]
                                [--label TEXT]
                                [--append perfbench/trajectory.json]

The workloads and the seconds per run default to BENCHMARK.json's.
Each run uses its own seed (first-seed, first-seed + 1, ...). For
every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median.
With --append it adds the same summary, the raw values, the label
and the git commit as one entry to a JSON trajectory file.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--label", default="")
    parser.add_argument("--append")
    args = parser.parse_args()

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True).stdout.strip()
    entry = {"label": args.label, "commit": commit or None,
             "date": datetime.date.today().isoformat(),
             "host": {"machine": platform.machine(),
                      "threads": os.cpu_count()},
             "runs": args.runs, "seconds": args.seconds,
             "seeds": list(range(args.first_seed,
                                 args.first_seed + args.runs)),
             "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds)
                   for seed in entry["seeds"]]
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = dict(unit=first["unit"], **summarise(values))
            m = metrics[name]
            print("%-13s %-34s median %14.6g  q1 %14.6g  q3 %14.6g  "
                  "spread %6.2f%%" % (workload, name, m["median"], m["q1"],
                                      m["q3"], 100 * (m["spread"] or 0)),
                  flush=True)
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": metrics}
        print("%-13s attempted %d failed %d" % (
            workload, entry["workloads"][workload]["attempted"],
            entry["workloads"][workload]["failed"]), flush=True)
    if args.append:
        trajectory = []
        if os.path.exists(args.append):
            with open(args.append) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(args.append, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
