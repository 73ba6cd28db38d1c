#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints, per metric, the
median and the interquartile range as a share of the median.

    python3 dtxbench/steady.py [--runs 10] [--seconds 20] [--trace 0|1]
                               [--workloads read_large,update_small,...]
                               [--first-seed 1]

Run from the repository root. Workloads alternate (w1 w2 w3 w1 w2 w3 ...)
so slow drift of the machine spreads over all of them; run i uses seed
first_seed + i. Quartiles are Python's statistics.quantiles(values, n=4).
The bounds in BENCHMARK.json are set from this output: a metric's IQR
share must stay well below its bound. The last line is a JSON summary.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default="read_large,update_small,tcp_open_loop")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    failed_share = {w: [] for w in workloads}
    correct = {w: True for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            result = run(workload, args.first_seed + i, args.seconds,
                         args.trace)
            correct[workload] &= result["correct"]
            failed_share[workload].append(result["failed"] /
                                          result["attempted"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("run %d %s seed %d correct=%s attempted=%d failed=%d" %
                  (i, workload, args.first_seed + i, result["correct"],
                   result["attempted"], result["failed"]), file=sys.stderr)

    summary = {}
    for workload in workloads:
        print("%s (correct in every run: %s, failed shares: %s)" %
              (workload, correct[workload],
               sorted(set(failed_share[workload]))))
        print("  %-40s %14s %14s %8s" % ("metric", "median", "iqr", "iqr/med"))
        summary[workload] = {}
        for name, series in values[workload].items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = series[0]
            share = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "iqr": q3 - q1,
                                       "iqr_share": share, "values": series}
            print("  %-40s %14.6g %14.6g %7.1f%%" %
                  (name, median, q3 - q1, 100.0 * share))
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
