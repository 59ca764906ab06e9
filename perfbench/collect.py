#!/usr/bin/env python3
"""Runs the benchmark repeatedly and appends each result to a JSONL file.

    python3 perfbench/collect.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--seconds N] [--trace 0|1]

Run from the checkout root. Each line of the output is
{"workload": ..., "seed": ..., "trace": ..., "result": <run.py's result>}.
Seconds default to BENCHMARK.json's run_seconds, workloads to all of them.
perfbench/compare.py reads one or two such files.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    failures = 0
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failures += 1
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode),
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                brief = {k: round(v["value"], 4)
                         for k, v in result["metrics"].items()}
                print("%s seed %d: %s" % (workload, seed, brief),
                      file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
