#!/usr/bin/env python3
"""Steadiness check: run one workload as two sets of runs and compare them.

    python3 perfbench/steady.py --workload paper-suite

It makes two sets of ten runs of perfbench/run.py, each run with its
own seed (set 1 uses seeds 1-10, set 2 seeds 11-20) and the run length
of BENCHMARK.json.  For every end-to-end metric in BENCHMARK.json it
prints each set's median and quartiles, the spread (q3 - q1) / median
of each set, and whether the two medians agree: they do when they
differ, in either direction, by at most the metric's bound as a share
of the first.  It also checks
that the share of failed operations is the same in both sets.  Exits 1
when any run fails or the sets disagree.
"""
import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10  # per set


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        print(f"  seed {seed}: run failed (exit {out.returncode})")
        return None
    return json.loads(last)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = []
    ok = True
    for k in range(2):
        results = []
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            r = run_once(a.workload, seed, seconds)
            if r is None or not r["correct"]:
                ok = False
                continue
            results.append(r)
            vals = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                            for m in metrics)
            print(f"  set {k + 1} seed {seed}: {vals}", flush=True)
        sets.append(results)
    if not ok or any(len(s) < 2 for s in sets):
        print("FAIL: some runs failed")
        return 1
    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
              for s in sets]
    print(f"failed share per set: {shares}")
    if len(set(shares)) > 1:
        ok = False
    print(f"{a.workload}: {RUNS} runs per set, {seconds} s each")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        rows = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
        spreads = [(q3 - q1) / med for med, q1, q3 in rows]
        line = "  ".join(
            f"set{k + 1} median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] spread {sp:.3f}"
            for k, ((med, q1, q3), sp) in enumerate(zip(rows, spreads)))
        first, second = rows[0][0], rows[1][0]
        change = (second - first) / first
        agree = abs(change) <= bound
        steady = name == "setup_s" or all(sp <= bound for sp in spreads)
        ok = ok and agree and steady
        verdict = (f"  second vs first {change:+.3f} (bound {bound}): "
                   f"{'agree' if agree else 'DISAGREE'}"
                   f"{'' if steady else ', SPREAD OVER BOUND'}")
        print(f"{name:14s} {line}{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
