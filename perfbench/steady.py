#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--workload W ...] [--runs N]

Runs each workload N times (default 10) through run.py, seeds 1..N, with
the run length from BENCHMARK.json, and prints for every end-to-end metric
its median, quartiles (statistics.quantiles, n=4) and the quartile spread
as a share of the median, next to the metric's bound. A spread of a third
of the bound or more is marked WIDE, setup_s included. The share of failed
operations must be the same in every run. Bounds are set with this
command, and baselines are re-measured with it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        raise SystemExit("%s seed %d: run failed (exit %d)"
                         % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()

    wide = 0
    for w in a.workload or names:
        results = [run_once(w, seed, bench["run_seconds"])
                   for seed in range(1, a.runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        bad = [r for r in results if not r["correct"]]
        print("== %s: %d runs, failed share %s%s" % (
            w, len(results), ", ".join("%.6f" % s for s in shares),
            "" if len(shares) == 1 else "  NOT CONSTANT"))
        if bad:
            print("   %d run(s) reported wrong outputs" % len(bad))
            wide += 1
        wide += len(shares) != 1
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= m["bound"] / 3:
                flag = "WIDE"
                wide += 1
            print("   %-18s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%%  bound %5.1f%%  %s" % (
                      m["name"], med, q1, q3, 100 * spread,
                      100 * m["bound"], flag))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
