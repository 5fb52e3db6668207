#!/usr/bin/env python3
"""Diff freshly produced BENCH_*.json files against committed baselines.

Usage: tools/bench_diff.py <baseline-dir> <new-dir> [--update]

For every BENCH_*.json present in BOTH directories, compares every metric
tools/bench_format.py reads from it (Google-Benchmark `real_time` and
counters, support::BenchReport metrics), with that module's direction
rule; metrics of undecidable direction, or marked ungated, are reported
but not gated.

A metric regresses when it is worse than the committed baseline by more
than BOLT_BENCH_TOLERANCE (default 0.25 = 25%). Any regression fails the
run (exit 1) — this is the CI gate for contract-generation latency and
monitor throughput trajectories. Baselines live in bench/baselines/ and
are refreshed deliberately with --update after a justified perf change.

Absolute timings only transfer between comparable machines, so both JSON
formats record the CPU count (google-benchmark's `context.num_cpus`, the
BenchReport `num_cpus` field). When it differs between baseline and fresh
run, timing metrics are reported but NOT gated (the run still prints the
deltas; refresh the baselines from an artifact produced on the gating
hardware to arm the gate). BOLT_BENCH_STRICT=1 gates regardless.
"""

import os
import sys

import bench_format

TOLERANCE = float(os.environ.get("BOLT_BENCH_TOLERANCE", "0.25"))


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    baseline_dir, new_dir = argv[1], argv[2]
    update = "--update" in argv[3:]

    if not os.path.isdir(baseline_dir):
        print(f"bench_diff: no baseline dir '{baseline_dir}' — nothing to gate")
        return 0

    regressions = []
    compared = 0
    for fname in sorted(os.listdir(baseline_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        base_path = os.path.join(baseline_dir, fname)
        new_path = os.path.join(new_dir, fname)
        if not os.path.isfile(new_path):
            print(f"  [skip] {fname}: not produced by this run")
            continue
        base, base_cpus = bench_format.load(base_path)
        new, new_cpus = bench_format.load(new_path)
        strict = os.environ.get("BOLT_BENCH_STRICT") == "1"
        same_machine = base_cpus == new_cpus
        if not same_machine and not strict:
            print(f"  [note] {fname}: baseline recorded on different hardware "
                  f"(num_cpus {base_cpus} vs {new_cpus}) — timings reported, "
                  f"not gated")
        for key, metric in sorted(base.items()):
            bval = metric.value
            gate = metric.gated and (same_machine or strict)
            direction = metric.direction if gate else 0
            if key not in new:
                print(f"  [gone] {fname}:{key} (was {bval:g})")
                continue
            nval = new[key].value
            compared += 1
            if direction == 0 or bval == 0:
                print(f"  [info] {fname}:{key} {bval:g} -> {nval:g}")
                continue
            if direction > 0:
                change = (nval - bval) / bval  # positive = improvement
            else:
                change = (bval - nval) / bval  # positive = improvement
            status = "ok"
            if change < -TOLERANCE:
                status = "REGRESSION"
                regressions.append((fname, key, bval, nval))
            print(f"  [{status:>10}] {fname}:{key} {bval:g} -> {nval:g} "
                  f"({change * 100:+.1f}%)")
        if update:
            with open(new_path) as src, open(base_path, "w") as dst:
                dst.write(src.read())
            print(f"  [updated] baseline {fname}")

    print(f"bench_diff: {compared} metrics compared, "
          f"{len(regressions)} regression(s), tolerance {TOLERANCE * 100:.0f}%")
    if regressions and not update:
        for fname, key, bval, nval in regressions:
            print(f"  FAILED {fname}:{key}: {bval:g} -> {nval:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
