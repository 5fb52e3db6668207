#!/usr/bin/env python3
"""Operator-path benchmark for Bolt's NAT monitor (see README.md here).

    python3 opbench/run.py --workload zipf-batch --seed 1 --seconds 10 --trace 0

Builds bolt_cli and the opbench helpers from the checkout, generates the
seeded inputs (untimed), then runs the workload's bolt_cli command sequence
as child processes in a closed loop (one command at a time) until
--seconds have passed. Every command's exit code, expected output line and
output bytes are checked against a reference made at the start of the run.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": commands, "failed": commands, "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the loop's
iterations); --trace 1 runs the traced layer replay (opbench_replay) over
the same inputs instead and reports the per-layer metrics. Metric names and
units come from BENCHMARK.json. Any failed command or check makes the run
exit 1; a missing toolchain or source tree exits 2 without a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "opbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

ZIPF_PACKETS = 400_000
LONGRUN_PACKETS = 400_000
THREADS = 4
# Guard for the whole run after the build; a run must end within 180 s.
RUN_LIMIT_S = 170

WORKLOADS = ("zipf-batch", "longrun-fleet")
PROCESSED = re.compile(r"^processed (\d+) packets in ([0-9.]+) ms", re.M)

_live = set()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("opbench: " + msg)
    sys.exit(code)


def _stop(signum, frame):
    """SIGALRM (the run's time guard), SIGTERM and SIGINT: kills and reaps
    every live child, then exits through main's cleanup."""
    for pid in list(_live):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
        _live.discard(pid)
    if signum == signal.SIGALRM:
        die("run exceeded %d s; children stopped" % RUN_LIMIT_S, 1)
    die("stopped by signal %d; children stopped" % signum, 1)


# ------------------------------------------------------------------ build --

def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no Bolt source tree at %s" % ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    tmp = os.path.join(BUILD, "tmp")  # keeps compiler temporaries here
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", BUILD, "--target"] + targets
                     + ["-j", str(THREADS)])
        for step in steps:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, env=env)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                die("build failed: " + " ".join(step))
    paths = {t: os.path.join(BUILD, "bolt", t) if t == "bolt_cli"
             else os.path.join(BUILD, t) for t in targets}
    for path in paths.values():
        if not os.access(path, os.X_OK):
            die("build produced no %s" % path)
    return paths


# --------------------------------------------------------------- commands --

class Result:
    def __init__(self, argv, code, wall, cpu, rss_kib, out, err):
        self.argv, self.code, self.wall, self.cpu = argv, code, wall, cpu
        self.rss_kib, self.out, self.err = rss_kib, out, err

    def stdout(self):
        with open(self.out, "rb") as f:
            return f.read()

    def stderr(self):
        with open(self.err, "rb") as f:
            return f.read().decode(errors="replace")

    def engine_s(self):
        """Engine seconds from the CLI's 'processed N packets in X ms'."""
        m = PROCESSED.search(self.stdout().decode(errors="replace"))
        return (int(m.group(1)), float(m.group(2)) / 1e3) if m else None


def spawn(argv, out, err):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _live.add(pid)
    return pid


def run_group(cmds, work, tag):
    """Starts every command at once and reaps them; wall time per command
    runs from its own start to its own exit (wait4 rusage gives CPU+RSS)."""
    started = {}
    for i, argv in enumerate(cmds):
        out = os.path.join(work, "%s.%d.out" % (tag, i))
        err = os.path.join(work, "%s.%d.err" % (tag, i))
        t0 = time.perf_counter()
        started[spawn(argv, out, err)] = (i, t0, argv, out, err)
    results = [None] * len(cmds)
    while started:
        pid, status, ru = os.wait4(-1, 0)
        t1 = time.perf_counter()
        if pid not in started:
            continue
        _live.discard(pid)
        i, t0, argv, out, err = started.pop(pid)
        results[i] = Result(argv, os.waitstatus_to_exitcode(status), t1 - t0,
                            ru.ru_utime + ru.ru_stime, ru.ru_maxrss, out, err)
    return results


def run1(argv, work, tag):
    return run_group([argv], work, tag)[0]


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def mtimes(directory):
    """Modification time of each file in `directory` ({} if absent)."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return {}
    return {n: os.stat(os.path.join(directory, n)).st_mtime_ns for n in names}


def corrupt(path):
    """Flips one byte of a reference (the gate's self-check)."""
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        f.seek(0)
        f.write(data)


def check_clean_report(path, what):
    rep = json.loads(read(path))
    if rep.get("violations") != 0 or rep.get("unattributed") != 0:
        die("%s reference report has violations or unattributed packets"
            % what, 1)


# --------------------------------------------------------------- workloads --

class Loop:
    """Closed-loop accounting: one sample per iteration of the sequence."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = {"wall": [], "cpu": [], "engine": [], "setup": []}
        self.rss_kib = 0

    def command(self, res, checks):
        """Counts one command; `checks` maps each expectation to whether
        it held. Returns True when all did."""
        self.attempted += 1
        self.rss_kib = max(self.rss_kib, res.rss_kib)
        broken = [what for what, held in checks.items() if not held]
        if broken:
            self.failed += 1
            log("FAILED (%s): %s" % (", ".join(broken), " ".join(res.argv[1:])))
        return not broken

    def add(self, wall, cpu, engine, setup):
        for k, v in (("wall", wall), ("cpu", cpu), ("engine", engine),
                     ("setup", setup)):
            self.samples[k].append(v)


def zipf_batch(ctx, lp):
    cli, c, pcap, work = ctx["cli"], ctx["contract"], ctx["zipf"], ctx["work"]
    ref = os.path.join(work, "ref.json")
    r = run1([cli, "monitor", "nat", "--contract", c, "--pcap", pcap,
              "--threads", "1", "--report", ref], work, "ref")
    if r.code != 0:
        die("zipf-batch reference run exited %d" % r.code, 1)
    check_clean_report(ref, "zipf-batch")
    if ctx["corrupt"]:
        corrupt(ref)
    expected = read(ref)
    out = os.path.join(work, "report.json")
    argv = [cli, "monitor", "nat", "--contract", c, "--pcap", pcap,
            "--threads", str(THREADS), "--report", out]

    def iteration():
        if os.path.exists(out):
            os.remove(out)
        r = run1(argv, work, "run")
        eng = r.engine_s()
        if lp.command(r, {"exit code %d" % r.code: r.code == 0,
                          "processed line": eng is not None
                          and eng[0] == ctx["packets"],
                          "report bytes": read(out) == expected}):
            lp.add(r.wall, r.cpu, eng[1], r.wall - eng[1])
    return iteration


def longrun_fleet(ctx, lp):
    cli, c, pcap, work = ctx["cli"], ctx["contract"], ctx["longrun"], ctx["work"]
    ref = os.path.join(work, "ref.json")
    r = run1([cli, "monitor", "nat", "--contract", c, "--pcap", pcap,
              "--no-cycles", "--report", ref], work, "ref")
    if r.code != 0:
        die("longrun-fleet reference run exited %d" % r.code, 1)
    check_clean_report(ref, "longrun-fleet")
    if ctx["corrupt"]:
        corrupt(ref)
    expected = read(ref)
    out = os.path.join(work, "merged.json")
    # One spool for the whole run: each iteration's partials overwrite the
    # previous iteration's files of the same name. Creating and deleting
    # tens of thousands of small files per run on an ext4 volume mounted
    # with discard slowed the following minutes of runs (README.md,
    # "Steadiness record").
    spool = os.path.join(work, "spool")

    def iteration():
        instances = [[cli, "monitor", "nat", "--contract", c, "--pcap", pcap,
                      "--threads", "1", "--fleet", "%d/2" % i, "--spool",
                      spool, "--delta-every", "1", "--no-cycles"]
                     for i in range(2)]
        merge = [cli, "merge", "nat", "--spool", spool, "--report", out]
        if os.path.exists(out):
            os.remove(out)
        before = mtimes(spool)
        t0 = time.perf_counter()
        fleet = run_group(instances, work, "fleet")
        m = run1(merge, work, "merge")
        wall = time.perf_counter() - t0
        ok = True
        engines = []
        for r in fleet:
            eng = r.engine_s()
            ok &= lp.command(r, {"exit code %d" % r.code: r.code == 0,
                                 "processed line": eng is not None
                                 and eng[0] == ctx["packets"]})
            engines.append(eng[1] if eng else None)
        after = mtimes(spool)
        rewritten = all(after.get(name, t) > t for name, t in before.items())
        ok &= lp.command(m, {"exit code %d" % m.code: m.code == 0,
                             "merged line": "merged " in m.stderr(),
                             "merged report bytes": read(out) == expected,
                             "every spool partial rewritten": rewritten})
        if ok:
            slow = max(range(2), key=lambda i: fleet[i].wall)
            lp.add(wall, sum(r.cpu for r in fleet) + m.cpu, engines[slow],
                   fleet[slow].wall - engines[slow])
    return iteration


def end_to_end(ctx, seconds):
    lp = Loop()
    iteration = {"zipf-batch": zipf_batch,
                 "longrun-fleet": longrun_fleet}[ctx["workload"]](ctx, lp)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or lp.attempted < 3:
        iteration()
    s = lp.samples
    n = len(s["wall"])
    metrics = {}
    if n:
        wall = statistics.median(s["wall"])
        engine = statistics.median(s["engine"])
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(s["cpu"]),
            "pps": ctx["packets"] / wall,
            "engine_pps": ctx["packets"] / engine,
            "setup_s": statistics.median(s["setup"]),
            "peak_rss_mb": lp.rss_kib / 1024.0,
        }
        for k in ("wall", "cpu", "engine", "setup"):
            v = sorted(s[k])
            q = statistics.quantiles(v, n=4) if n > 1 else [v[0]] * 3
            log("  %-7s median %.4f s  q1 %.4f  q3 %.4f  min %.4f  n=%d"
                % (k, q[1], q[0], q[2], v[0], n))
    log("  failed_share %d/%d" % (lp.failed, lp.attempted))
    return lp.attempted, lp.failed, metrics


def traced(ctx, seconds):
    # The batch layers replay the workload's own trace.
    trace = ctx[ctx["workload"].split("-")[0]]
    os.makedirs(TRACES, exist_ok=True)
    spans = os.path.join(TRACES, ctx["workload"] + ".spans.csv")
    argv = [ctx["replay"], "--seed", str(ctx["seed"]),
            "--contract", ctx["contract"], "--pcap", trace,
            "--longrun", ctx["longrun"], "--workdir", ctx["work"],
            "--cycles", "0" if ctx["workload"] == "longrun-fleet" else "1",
            "--seconds", str(seconds), "--spans", spans]
    r = run1(argv, ctx["work"], "replay")
    try:
        doc = json.loads(r.stdout())
    except ValueError:
        die("opbench_replay produced no result (exit %d): %s"
            % (r.code, r.stderr()[-2000:]), 1)
    log("  replay: %d reps, %d spans -> %s; checks %s"
        % (doc["reps"], doc["spans"], spans, doc["checks"]))
    failed = 0 if r.code == 0 else doc["reps"]
    return doc["reps"], failed, doc["metrics"]


# -------------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-check: flip one byte of the reference, so "
                         "every compared command must count as failed")
    a = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at %s" % ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    seconds = spec["run_seconds"] if a.seconds is None else a.seconds

    tools = build(["bolt_cli", "opbench_gen"]
                  + (["opbench_replay"] if a.trace else []))
    cli = tools["bolt_cli"]
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_LIMIT_S)

    work = os.path.join(WORK, "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = {"cli": cli, "replay": tools.get("opbench_replay"), "work": work,
           "seed": a.seed,
           "workload": a.workload, "corrupt": a.corrupt_reference}
    try:
        # Seeded inputs, untimed. bolt_cli only ever sees these files.
        gen = [tools["opbench_gen"], "--seed", str(a.seed), "--out", work]
        if a.workload == "zipf-batch":
            gen += ["--zipf", str(ZIPF_PACKETS)]
        if a.trace or a.workload == "longrun-fleet":
            gen += ["--longrun", str(LONGRUN_PACKETS)]
        contract = os.path.join(work, "contract.json")
        for argv in (gen, [cli, "contract", "nat", "--out", contract]):
            r = run1(argv, work, "setup")
            if r.code != 0:
                die("input generation failed: %s" % r.stderr()[-2000:], 1)
        ctx["contract"] = contract
        for name, packets in (("zipf", ZIPF_PACKETS),
                              ("longrun", LONGRUN_PACKETS)):
            path = os.path.join(work, name + ".pcap")
            if os.path.exists(path):
                ctx[name] = path
                log("input %s.pcap sha256=%s" % (name, digest(path)))
                if name == a.workload.split("-")[0]:
                    ctx["packets"] = packets
        log("input contract.json sha256=%s" % digest(contract))

        if a.trace:
            attempted, failed, metrics = traced(ctx, seconds)
        else:
            attempted, failed, metrics = end_to_end(ctx, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    signal.alarm(0)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and failed == 0:
        die("metrics missing from the run: %s" % ", ".join(missing), 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
