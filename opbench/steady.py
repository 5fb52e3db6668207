#!/usr/bin/env python3
"""Steadiness check for the operator-path benchmark.

    python3 opbench/steady.py --runs 10 --first-seed N [--record NAME]
                              [--against NAME]

Runs run.py once per seed (seeds N .. N+runs-1) on every workload in
BENCHMARK.json, then prints, per end-to-end metric, the median and quartiles
of the per-run values (statistics.quantiles(n=4)) and the quartile spread as
a share of the median, next to a third of the metric's bound. A spread at or
above that third marks the set WIDE. --record appends the set to
baseline.json under NAME. --against compares each median with set NAME of
baseline.json and marks a metric WORSE when it got worse by more than its
bound. Every run must pass its own correctness checks. Exits 1 when a run
fails, or when any metric is WIDE or WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", metavar="NAME",
                    help="append this set to baseline.json as NAME")
    ap.add_argument("--against", metavar="NAME",
                    help="compare medians with set NAME of baseline.json")
    a = ap.parse_args()

    with open(BASELINE) as f:
        baseline = json.load(f)
    earlier = None
    if a.against:
        earlier = {s["name"]: s for s in baseline["sets"]}[a.against]

    workloads = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed (exit %d)\n%s"
                      % (workload, seed, proc.returncode, proc.stderr[-2000:]),
                      file=sys.stderr)
                return 1
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        workloads[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flags = "" if spread < m["bound"] / 3 else "  WIDE"
            versus = ""
            if earlier:
                then = earlier["workloads"][workload][m["name"]]["median"]
                change = (med - then) / then
                versus = "  vs %s %+6.1f%%" % (a.against, change * 100)
                if (change if m["better"] == "lower" else -change) > m["bound"]:
                    flags += "  WORSE"
            steady &= not flags
            workloads[workload][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": v}
            print("  %-13s %-12s median %-12.5g q1 %-12.5g q3 %-12.5g "
                  "spread %5.1f%% (bound/3 %4.1f%%)%s%s"
                  % (workload, m["name"], med, q1, q3, spread * 100,
                     m["bound"] * 100 / 3, versus, flags),
                  flush=True)
    if a.record:
        baseline["sets"].append({"name": a.record,
                                 "first_seed": a.first_seed,
                                 "run_seconds": spec["run_seconds"],
                                 "workloads": workloads})
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
