#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly in separate sets.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]
                                [--seconds S] [--trace 0|1]

Every run uses its own seed (set s, run r -> seed 1000*s + r). For each
set, workload and metric it prints the median, the first and third
quartile (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. It then compares the sets: the shift of each set's
median against the first set's, in the metric's worse direction, and the
share of failed operations. With --trace 0 each end-to-end metric is
judged against its bound in BENCHMARK.json: the spread (setup_s excepted)
and the shift must stay within the bound. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    ok = True
    for workload in workloads:
        medians, shares = [], []
        for s in range(1, args.sets + 1):
            results = []
            for r in range(args.runs):
                results.append(run_once(workload, 1000 * s + r, args.seconds,
                                        args.trace))
                print(f"{workload} set {s} run {r + 1}/{args.runs} done",
                      file=sys.stderr, flush=True)
            attempted = sum(x["attempted"] for x in results)
            failed = sum(x["failed"] for x in results)
            shares.append((failed, attempted))
            correct = all(x["correct"] for x in results)
            print(f"\n{workload} set {s}: {args.runs} runs, {failed} of "
                  f"{attempted} operations failed, correct={correct}")
            print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}")
            set_medians = {}
            for m in metrics:
                values = [x["metrics"][m["name"]]["value"] for x in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                set_medians[m["name"]] = med
                bound = m.get("bound")
                flag = ""
                if bound is not None and m["name"] != "setup_s" \
                        and spread > bound:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                print(f"  {m['name']:36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {bound if bound is not None else '':>6}"
                      f"{flag}")
                ok = ok and correct
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print(f"\n{workload}: set {s + 1} median against set 1")
            for m in metrics:
                a, b = medians[0][m["name"]], medians[s][m["name"]]
                if not a:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                bound = m.get("bound")
                flag = ""
                if bound is not None and worse > bound:
                    flag = "  SHIFT OVER BOUND"
                    ok = False
                print(f"  {m['name']:36} worse by {worse:+.4f}"
                      f" (bound {bound}){flag}")
            (f0, a0), (f1, a1) = shares[0], shares[s]
            if f0 * a1 != f1 * a0:
                print(f"  failed share differs: {f0}/{a0} vs {f1}/{a1}")
                ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
