"""The one reader of the BENCH_*.json format, shared by tools/bench_diff.py
and tools/bench_trend.py.

Two flavours are understood:
  * support::BenchReport: {"bench": ..., "num_cpus": N,
    "metrics": [{name, value, unit, gate?}, ...]}
  * Google Benchmark: {"context": {"num_cpus": N}, "benchmarks": [...]}.
    Every non-aggregate row yields `NAME:real_time` (unit: the row's
    time_unit) and `NAME:COUNTER` for each numeric user counter.

Every metric carries one direction (direction(): +1 higher is better, -1
lower is better, 0 undecidable) and whether a regression gate may apply to
it (`gated`: false for metrics marked "gate": false by their bench, and for
NEVER_GATED ones).
"""

import collections
import json

Metric = collections.namedtuple("Metric", "value unit direction gated")

HIGHER_HINTS = ("speedup", "per_s", "pps", "ratio", "scaling", "throughput")
LOWER_UNITS = ("ns", "ms", "us", "s")
LOWER_NAME_HINTS = ("_ns", "_ms", "_us", "latency", "time")

# Never gated: metrics defined against a fixed reference machine
# (contract_gen_speedup divides by a recorded pre-optimization wall time,
# so it is machine-proportional and redundant with the real_time gate on
# the same benchmark).
NEVER_GATED = ("contract_gen_speedup", "contract_gen_ns")

# Google Benchmark row fields that are bookkeeping, not measurements.
BOOKKEEPING = {"iterations", "repetitions", "repetition_index", "threads",
               "real_time", "cpu_time", "family_index",
               "per_family_instance_index"}


def direction(name, unit=""):
    """+1 if higher is better, -1 if lower is better, 0 if unknown."""
    lname, lunit = name.lower(), (unit or "").lower()
    if any(h in lname for h in HIGHER_HINTS) or lunit.endswith("/s"):
        return 1
    if lunit in LOWER_UNITS or any(h in lname for h in LOWER_NAME_HINTS):
        return -1
    return 0


def _metric(name, value, unit, gate=True):
    gated = gate is not False and not any(h in name for h in NEVER_GATED)
    return Metric(float(value), unit, direction(name, unit), gated)


def load(path):
    """BENCH json file -> ({key: Metric} in file order, num_cpus or None)."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    if not isinstance(doc, dict):
        return out, None
    if "benchmarks" in doc:
        for row in doc["benchmarks"]:
            name = row.get("name")
            if (name is None or row.get("run_type") == "aggregate"
                    or "aggregate_name" in row):
                continue
            if "real_time" in row:
                out[name + ":real_time"] = _metric(
                    "real_time", row["real_time"], row.get("time_unit", "ns"))
            for key, value in row.items():
                if (key not in BOOKKEEPING and isinstance(value, (int, float))
                        and not isinstance(value, bool)):
                    out[name + ":" + key] = _metric(key, value, "")
        return out, doc.get("context", {}).get("num_cpus")
    for m in doc.get("metrics", []):
        if m.get("name") is None or "value" not in m:
            continue
        out[m["name"]] = _metric(m["name"], m["value"], m.get("unit", ""),
                                 m.get("gate", True))
    return out, doc.get("num_cpus")
