#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the checkout root. Builds perfbench_driver and rnt_node from the
repository sources into .bench_build/perfbench (incremental after the
first run), then runs one workload. The driver prints one info line and,
last, one JSON result line; this script passes both through and checks
that the result carries exactly the metrics BENCHMARK.json declares.
Exit status: the driver's (1 when a correctness gate fails), or 1 when
the build fails or the result does not match the declaration.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("durable_oltp", "contended_certified", "bsim_processes")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        # The build log is shown only on failure, and on stderr: stdout's
        # last line is the result.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            return False
    return True


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: run from the checkout root (src/ not found)",
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    driver = os.path.join(BUILD, "perfbench_driver")
    proc = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: driver printed no result", file=sys.stderr)
        return 1
    declared = declared_metrics(bool(args.trace))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and got != declared:
        print("perfbench: metrics differ from BENCHMARK.json: %s vs %s"
              % (sorted(got.items()), sorted(declared.items())),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
