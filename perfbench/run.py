#!/usr/bin/env python3
"""Builds the benchmark binary in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --selftest

The binary is configured from perfbench/CMakeLists.txt, which builds the
repository's libraries from source, into .bench_build/ at the repository
root. Images and write-ahead logs go to .bench_work/ (removed after each
run); traced runs write their spans to .bench_traces/. The last line of
standard output is the binary's JSON result. --selftest builds and runs the
checker test instead, which shows that the answer checks can fail.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("suite_wsj", "wire_adhoc_swb", "live_ingest_wsj")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=out, stderr=out)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4)),
         "--target", "perfbench", "perfbench_check_test"],
        check=True, stdout=out, stderr=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_check_test")]
                              ).returncode

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work",
                                      f"{args.workload}-{os.getpid()}")]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
