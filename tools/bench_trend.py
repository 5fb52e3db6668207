#!/usr/bin/env python3
"""Render a BENCH_*.json archive into a markdown trend table.

Usage: tools/bench_trend.py <result-dir> [<result-dir> ...] [-o trend.md]
       tools/bench_trend.py --archive <archive-dir> [-o trend.md]

Each <result-dir> is one column of the trend — a directory of BENCH_*.json
files as produced by tools/bench_runner.sh (CI uploads one such directory
per commit as bench-results-<sha>; bench/baselines holds the committed
reference point). Directories are rendered in the order given, so a local
archive accumulated as bench-archive/<n>-<sha>/ renders oldest-to-newest
with a shell glob.

--archive DIR is the downloaded-CI-artifacts convenience: DIR's immediate
subdirectories each become one column, ordered oldest-to-newest by
(mtime, name) — so an archive of unpacked bench-results-<sha> artifact
directories renders chronologically without the caller having to know the
shas, and prepending bench/baselines still works by listing it before
--archive. Extra positional directories compose with --archive: positionals
render first, then the archive expansion.

Both bench JSON flavours are understood:
  * support::BenchReport ({"bench": ..., "metrics": [{name, value, unit}]})
  * Google-Benchmark ({"benchmarks": [...]}) — per-benchmark real_time plus
    any user counters (aggregate rows are skipped)

The final column is the relative change of the last column vs the first,
with an arrow that points up when the change is *better* for metrics whose
direction tools/bench_format.py can infer from the name/unit (rates,
speedups: higher is better; durations: lower is better).
"""

import argparse
import os
import sys

import bench_format


def fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def render(dirs, labels):
    # bench file name -> list of per-dir metric maps (None when absent).
    files = []
    for d in dirs:
        names = sorted(n for n in os.listdir(d)
                       if n.startswith("BENCH_") and n.endswith(".json"))
        files.append(names)
    all_files = sorted({n for names in files for n in names})

    lines = ["# Bench trend", ""]
    lines.append("Columns: " + " → ".join(labels))
    lines.append("")
    for bench_file in all_files:
        columns = []
        for d in dirs:
            path = os.path.join(d, bench_file)
            columns.append(bench_format.load(path)[0]
                           if os.path.exists(path) else None)
        metric_names = []
        for col in columns:
            if col:
                for name in col:
                    if name not in metric_names:
                        metric_names.append(name)
        lines.append(f"## {bench_file}")
        lines.append("")
        header = ["metric"] + labels + ["Δ last vs first"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for name in metric_names:
            row = [f"`{name}`"]
            series = []
            sign = 0
            for col in columns:
                if col and name in col:
                    value, unit, sign, _ = col[name]
                    series.append(value)
                    row.append(fmt(value) + (f" {unit}" if unit else ""))
                else:
                    series.append(None)
                    row.append("—")
            # Strictly the named endpoints: a metric absent from the first
            # or last column renders "—" rather than silently comparing
            # against some other commit.
            delta = "—"
            if (series[0] is not None and series[-1] is not None and
                    len(series) >= 2 and series[0] != 0):
                change = (series[-1] - series[0]) / abs(series[0])
                if sign != 0:
                    goodness = change * sign
                    arrow = "▲" if goodness > 0.005 else (
                        "▼" if goodness < -0.005 else "·")
                    delta = f"{change * 100:+.1f}% {arrow}"
                else:
                    delta = f"{change * 100:+.1f}%"
            row.append(delta)
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dirs", nargs="*",
                        help="bench result directories, oldest first")
    parser.add_argument("--archive", default=None, metavar="DIR",
                        help="expand DIR's subdirectories into columns, "
                             "ordered by (mtime, name)")
    parser.add_argument("-o", "--output", default="-",
                        help="output markdown file (default: stdout)")
    parser.add_argument("--labels", default=None,
                        help="comma-separated column labels "
                             "(default: directory basenames)")
    args = parser.parse_args()

    if args.archive is not None:
        if not os.path.isdir(args.archive):
            print(f"error: '{args.archive}' is not a directory",
                  file=sys.stderr)
            return 2
        entries = [os.path.join(args.archive, n)
                   for n in os.listdir(args.archive)]
        entries = [p for p in entries if os.path.isdir(p)]
        entries.sort(key=lambda p: (os.path.getmtime(p), p))
        if not entries:
            print(f"error: '{args.archive}' has no subdirectories",
                  file=sys.stderr)
            return 2
        args.dirs = args.dirs + entries
    if not args.dirs:
        parser.error("no result directories (positional or --archive)")

    for d in args.dirs:
        if not os.path.isdir(d):
            print(f"error: '{d}' is not a directory", file=sys.stderr)
            return 2
    labels = (args.labels.split(",") if args.labels
              else [os.path.basename(os.path.normpath(d)) for d in args.dirs])
    if len(labels) != len(args.dirs):
        print("error: label count != directory count", file=sys.stderr)
        return 2

    text = render(args.dirs, labels)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
