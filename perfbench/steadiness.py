#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py [workload ...]

Runs `perfbench/run.py --trace 0` once per seed (seeds 1-10) on each
workload named (default: all in
BENCHMARK.json) and prints, per workload and end-to-end metric, the median
and the interquartile range as a share of the median (quartiles as
Python's statistics.quantiles(values, n=4) gives them) next to the
metric's bound. Prints a markdown table; exits 1 when a run fails or is
marked incorrect. Also prints each run's values and the host's CPU steal
share during the run (from /proc/stat, when present): on a shared virtual
machine steal is what moves host wall and CPU times between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def cpu_times():
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after):
    if before is None or after is None or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    ok = True
    print("| workload | metric | unit | median | IQR / median | bound |")
    print("|---|---|---|---|---|---|")
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            before = cpu_times()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            steal = steal_share(before, cpu_times())
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            shown = " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in values)
            print(f"{workload} seed {seed}: steal {steal:.1%} {shown}", file=sys.stderr)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"| {workload} | {m['name']} | {m['unit']} | {med:.6g} | {(q3 - q1) / med:.3f} | {m['bound']} |")
            sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
