#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads a,b] [--seed0 1]

For each workload and end-to-end metric of BENCHMARK.json it prints the
median, the quartiles (statistics.quantiles(values, n=4)), min and max,
and the spread (Q3 - Q1) / median next to the metric's bound. With
--sets 2 it runs a second set with the same seeds and prints how far the
second median moved from the first, in the metric's worse direction.
A spread at or above the bound, or a drift above it, is marked FAIL.
Every run is appended as one JSON line to --log (if given).
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
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last)
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("run failed: %s seed %d: %s" % (workload, seed, last))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--log")
    a = ap.parse_args()
    metrics = bench["end_to_end"]
    ok = True
    for w in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                m = run_once(w, a.seed0 + i, a.seconds)
                runs.append(m)
                if a.log:
                    with open(a.log, "a") as f:
                        f.write(json.dumps({"workload": w, "set": s,
                                            "seed": a.seed0 + i, "metrics": m}) + "\n")
            sets.append({x["name"]: summarize([r[x["name"]] for r in runs]) for x in metrics})
        print("%s (%d runs x %d sets, seeds %d..%d)" %
              (w, a.runs, a.sets, a.seed0, a.seed0 + a.runs - 1))
        for x in metrics:
            name, bound = x["name"], x["bound"]
            for s, by_metric in enumerate(sets):
                st = by_metric[name]
                bad = name != "setup_s" and st["spread"] >= bound
                ok = ok and not bad
                print("  %-12s set%d median %-12.6g Q1 %-12.6g Q3 %-12.6g min %-12.6g "
                      "max %-12.6g spread %6.2f%% (bound %g%%)%s" %
                      (name, s + 1, st["median"], st["q1"], st["q3"], st["min"],
                       st["max"], 100 * st["spread"], 100 * bound,
                       "  FAIL" if bad else ""))
            if len(sets) == 2:
                m1, m2 = sets[0][name]["median"], sets[1][name]["median"]
                worse = (m2 - m1) / m1 if x["better"] == "lower" else (m1 - m2) / m1
                bad = worse > bound
                ok = ok and not bad
                print("  %-12s drift set2 vs set1: %+.2f%% worse (bound %g%%)%s" %
                      (name, 100 * worse, 100 * bound, "  FAIL" if bad else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
