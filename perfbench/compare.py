#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds results as perfbench/collect.py writes them. For every
workload and end-to-end metric, prints each set's median and quartiles
(statistics.quantiles(values, n=4)), its spread (Q3 - Q1) / median, and,
with two sets, the move of the median as a share of the base median:

  within bound  the new median is not worse by more than the bound
  worse         the new median is worse by more than the bound
  better        the new median is better by more than the bound
  unresolved    a set's spread is wider than the bound, so the move cannot
                be judged, unless every new run beats every base run

setup_s is judged on its median alone: its spread is not held to the bound.
With one set, reports whether each spread is below a third of the bound.
Exit status 1 when any metric is worse or unresolved (or, with one set,
when a spread exceeds its bound), else 0.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            metrics = rec["result"]["metrics"]
            for name, m in metrics.items():
                runs.setdefault(rec["workload"], {}).setdefault(
                    name, []).append(m["value"])
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_share(base_med, new_med, better):
    """Positive when the new median is worse, as a share of the base."""
    if base_med == 0:
        return 0.0
    delta = (new_med - base_med) / base_med
    return -delta if better == "higher" else delta


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else None
    bad = 0
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base:
            print("%s: no base runs" % w)
            bad += 1
            continue
        print("== %s" % w)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            b = base[w].get(name, [])
            if not b:
                print("  %-18s missing" % name)
                bad += 1
                continue
            bmed, bq1, bq3, bspread = summary(b)
            line = "  %-18s base n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f" % (
                name, len(b), bmed, bq1, bq3, bspread)
            judged_spread = name != "setup_s"
            if new is None:
                if not judged_spread:
                    verdict = "(spread not judged)"
                elif bspread <= bound / 3:
                    verdict = "steady (< bound/3 = %.3f)" % (bound / 3)
                elif bspread <= bound:
                    verdict = "within bound %.3f" % bound
                else:
                    verdict = "TOO WIDE (bound %.3f)" % bound
                    bad += 1
                print(line + "  " + verdict)
                continue
            n = new.get(w, {}).get(name, [])
            if not n:
                print(line + "  new: missing")
                bad += 1
                continue
            nmed, nq1, nq3, nspread = summary(n)
            move = worse_share(bmed, nmed, m["better"])
            higher = m["better"] == "higher"
            all_better = (min(n) > max(b)) if higher else (max(n) < min(b))
            if judged_spread and max(bspread, nspread) > bound and not all_better:
                verdict = "unresolved"
                bad += 1
            elif move > bound:
                verdict = "worse"
                bad += 1
            elif move < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(line)
            print("  %-18s new  n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f"
                  "  move %+.3f (bound %.3f): %s" % (
                      "", len(n), nmed, nq1, nq3, nspread, move, bound,
                      verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
