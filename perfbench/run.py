#!/usr/bin/env python3
"""The repository benchmark: time to solution of the real ORWL runtime.

Builds perfbench_worker from the checkout, runs one workload in a closed
loop (one client, one Program execution at a time, each verified) and
prints every metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload lk23 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --trace 1   # every workload
  python3 perfbench/run.py --selftest                 # deadline self-test
  python3 perfbench/run.py --compare A.json B.json    # two result files

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
interleaves untraced, traced and unbound (place::Policy::None) executions
and reports the per-layer metrics. README.md in this directory is the
metric and workload catalogue.
"""

import argparse
import json
import math
import os
import pathlib
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKER = BUILD / "perfbench_worker"

WORKLOADS = ["lk23", "alltoall", "oversub", "phaseshift"]

# An execution (or the one-off layers pass) that has not reported within
# this many seconds is killed and counted as failed. Executions take tens
# of milliseconds, verification at most a few hundred.
DEADLINE_S = 5.0
# Restarts after killed or crashed workers, per run.
MAX_RESTARTS = 20

END_TO_END = [  # name, unit
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [  # name, unit
    ("topo.host_s", "s"),
    ("workloads.build_s", "s"),
    ("treematch.map_s", "s"),
    ("treematch.threads_per_leaf", "count"),
    ("comm.hop_bytes", "bytes"),
    ("comm.measured_bytes", "bytes"),
    ("comm.exchange_gbs", "GB/s"),
    ("orwl.prepare_s", "s"),
    ("place.unbound_run_s", "s"),
    ("place.gain", "ratio"),
    ("place.epochs", "count"),
    ("place.replacements", "count"),
    ("place.migrated", "count"),
    ("place.rebind_failures", "count"),
    ("place.replace_s", "s"),
    ("place.replace_share", "ratio"),
    ("orwl.grants", "count"),
    ("orwl.grants.read", "count"),
    ("orwl.grants.write", "count"),
    ("orwl.releases", "count"),
    ("orwl.grants_per_s", "1/s"),
    ("orwl.cpu_per_grant_us", "us"),
    ("orwl.slow_acquires", "count"),
    ("orwl.slow_acquire_ratio", "ratio"),
    ("orwl.acquire_wait_p50_ns", "ns"),
    ("orwl.acquire_wait_p99_ns", "ns"),
    ("orwl.combiner.handoffs", "count"),
    ("orwl.combiner.cross_node", "count"),
    ("orwl.run_p90_s", "s"),
    ("sync.voluntary_csw", "count"),
    ("sync.voluntary_csw_per_grant", "ratio"),
    ("sync.involuntary_csw", "count"),
    ("mem.location_bytes", "bytes"),
    ("mem.model_gbs", "GB/s"),
    ("lk23.sequential_s", "s"),
    ("lk23.speedup", "ratio"),
    ("sim.predict_s", "s"),
    ("sim.host_predicted_s", "s"),
    ("sim.error", "ratio"),
    ("sim.compute_s", "s"),
    ("sim.memory_s", "s"),
    ("sim.comm_s", "s"),
    ("sim.sync_s", "s"),
    ("sim.lock_s", "s"),
    ("sim.paper_predicted_s", "s"),
    ("sim.paper_gain", "ratio"),
    ("obs.traced_overhead", "ratio"),
]

# Counters that are identical in every execution of a workload, whatever
# its placement or timing. An execution that disagrees with the run's
# first one ran a different program, and counts as failed.
DETERMINISTIC = ["grants_read", "grants_write", "measured_bytes"]

# Per-layer metrics that must read > 0 on the named workloads; a zero
# means the layer the workload claims to stress was not exercised.
MUST_MOVE = {
    "*": ["orwl.grants", "orwl.grants.read", "orwl.grants.write",
          "comm.measured_bytes", "comm.hop_bytes", "mem.location_bytes",
          "sync.voluntary_csw", "orwl.acquire_wait_p99_ns",
          "treematch.map_s", "sim.host_predicted_s",
          "sim.paper_predicted_s"],
    "lk23": ["lk23.sequential_s", "lk23.speedup", "sync.involuntary_csw"],
    "alltoall": ["orwl.combiner.handoffs"],
    "oversub": ["sync.involuntary_csw"],
    "phaseshift": ["place.epochs", "place.replacements", "place.migrated",
                   "place.replace_s", "sync.involuntary_csw"],
}

# Metrics that read 0 for a known reason, not because nothing happened.
KNOWN_DEAD = {
    "orwl.releases": "Instrument::record_release() has no caller, so the "
                     "counter never moves next to nonzero grants",
    "orwl.slow_acquires": "orwl.wait_rounds/h* counts spin rounds; under "
                          "the default block wait a parked acquire records "
                          "0 rounds, the same as a fast-path hit",
    "orwl.slow_acquire_ratio": "derived from orwl.slow_acquires",
}

# Metrics a workload cannot produce, reported as 0.
NOT_APPLICABLE = {
    "lk23.sequential_s": ({"lk23"}, "only lk23 has a sequential kernel"),
    "lk23.speedup": ({"lk23"}, "only lk23 has a sequential kernel"),
    "sim.sync_s": (set(), "the sim charges a barrier only to fork-join "
                   "programs; ORWL lock costs are in sim.lock_s"),
}
for _name in ["place.epochs", "place.replacements", "place.migrated",
              "place.rebind_failures", "place.replace_s",
              "place.replace_share"]:
    NOT_APPLICABLE[_name] = ({"phaseshift"},
                             "only phaseshift runs online re-placement")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------

def read_text(path, default=""):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return default


def cpulist_count(text):
    n = 0
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        n += int(hi or lo) - int(lo) + 1
    return n


def fingerprint():
    """What identifies the host a result was measured on."""
    model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    pus = cpulist_count(read_text("/sys/devices/system/cpu/online", "0"))
    nodes = read_text("/sys/devices/system/node/online")
    l3 = "none"
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        if read_text(index / "level") == "3":
            l3 = read_text(index / "size", "unknown")
    return {
        "cpu_model": model,
        "pus": pus,
        "numa_nodes": cpulist_count(nodes) if nodes else 1,
        "l3": l3,
        "kernel": read_text("/proc/sys/kernel/osrelease", "unknown"),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat. A virtual
    machine's steal time is CPU time its host gave to someone else."""
    fields = read_text("/proc/stat").splitlines()[0].split()[1:]
    ticks = [int(f) for f in fields[:8]]
    return ticks[7] if len(ticks) == 8 else 0, sum(ticks)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/; run from a "
             "checkout of the repository")
    cache = BUILD / "CMakeCache.txt"
    if (cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_worker", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})", 1)


# ---------------------------------------------------------------------------
# Running the worker under a deadline
# ---------------------------------------------------------------------------

class Worker:
    """One perfbench_worker process; yields its JSON lines, or None when
    the next line is later than the deadline."""

    def __init__(self, args):
        self.proc = subprocess.Popen([str(WORKER)] + args,
                                     stdout=subprocess.PIPE, cwd=ROOT)
        self.maxrss_kib = 0
        self.exit_code = None

    def lines(self, deadline_s):
        fd = self.proc.stdout.fileno()
        sel = selectors.DefaultSelector()
        sel.register(fd, selectors.EVENT_READ)
        buf = b""
        due = time.monotonic() + deadline_s
        try:
            while True:
                left = due - time.monotonic()
                if left <= 0:
                    yield None
                    return
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    due = time.monotonic() + deadline_s
                    yield json.loads(line)
        finally:
            sel.close()

    def stop(self):
        """Kill if still running, reap, and record exit code and peak RSS."""
        if self.exit_code is not None:
            return
        # os.kill, not Popen.kill: Popen polls (and so reaps) first, which
        # would lose the rusage that wait4 returns. An unreaped pid cannot
        # be reused, so signalling a worker that already exited is safe.
        os.kill(self.proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.exit_code = self.proc.returncode
        self.maxrss_kib = usage.ru_maxrss


def measure(workload, seed, seconds, mode):
    """Run executions for `seconds`, restarting the worker after a kill or
    crash. Returns the collected lines, attempt/failure counts, errors and
    the peak RSS of the worker processes."""
    layers, execs, spans, errors = None, [], [], []
    attempted = failed = 0
    peak_kib = 0
    next_exec = 1
    t_end = time.monotonic() + seconds
    steal0, total0 = cpu_ticks()
    for _ in range(MAX_RESTARTS + 1):
        left = max(0.0, t_end - time.monotonic())
        worker = Worker(["--workload", workload, "--seed", str(seed),
                         "--seconds", f"{left:.3f}", "--mode", mode,
                         "--first-exec", str(next_exec)])
        done = late = False
        try:
            for line in worker.lines(DEADLINE_S):
                if line is None:
                    late = True
                    break
                if line["type"] == "layers":
                    layers = line
                elif line["type"] == "exec":
                    execs.append(line)
                    attempted += 1
                    next_exec = int(line["exec"]) + 1
                    if not line["ok"]:
                        failed += 1
                        errors.append(f"execution {line['exec']}: "
                                      f"{line['error']}")
                elif line["type"] == "done":
                    spans = line["spans"]
                    done = True
        finally:
            worker.stop()
        peak_kib = max(peak_kib, worker.maxrss_kib)
        if done and worker.exit_code == 0:
            break
        # The execution in flight never reported: it failed.
        attempted += 1
        failed += 1
        why = (f"no result within the {DEADLINE_S:g} s deadline" if late
               else f"worker exited with code {worker.exit_code}")
        errors.append(f"execution {next_exec}: {why}")
        next_exec += 1
        if time.monotonic() >= t_end:
            break
    steal1, total1 = cpu_ticks()
    return {"layers": layers, "execs": execs, "spans": spans,
            "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
            "errors": errors, "attempted": attempted, "failed": failed,
            "peak_rss_mib": peak_kib / 1024.0}


def check_deterministic(execs, errors):
    """Mark executions whose deterministic counters differ from the first
    successful execution's as failed. Returns the number marked."""
    ref, bad = None, 0
    for e in execs:
        if not e["ok"]:
            continue
        got = {k: e[k] for k in DETERMINISTIC}
        if ref is None:
            ref = got
        elif got != ref:
            e["ok"] = 0
            bad += 1
            errors.append(f"execution {e['exec']}: counters {got} differ "
                          f"from the first execution's {ref}")
    return bad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def samples(execs, kind):
    return [e for e in execs if e["ok"] and not e["warmup"]
            and e["kind"] == kind]


def end_to_end(run):
    plain = samples(run["execs"], "plain")
    if not plain:
        return {}
    return {
        "run_s": median([e["run_s"] for e in plain]),
        "cpu_s": median([e["cpu_s"] for e in plain]),
        "setup_s": median([e["build_s"] + e["backend_s"] - e["run_s"]
                           for e in plain]),
        "peak_rss_mib": run["peak_rss_mib"],
    }


def span_tree(spans, errors):
    """Check that spans nest per execution; return median self time per
    span name."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, exe, name, start, end in spans:
        if end < start:
            errors.append(f"span {name} (execution {exe}) ends before it "
                          "starts")
        if parent < 0:
            continue
        p = by_id.get(parent)
        if p is None or p[2] != exe or start < p[4] or end > p[5]:
            errors.append(f"span {name} (execution {exe}) does not nest "
                          "in its parent")
            continue
        child_time[parent] = child_time.get(parent, 0) + (end - start)
    self_s = {}
    for sid, _, _, name, start, end in spans:
        self_s.setdefault(name, []).append(
            (end - start - child_time.get(sid, 0)) * 1e-9)
    return {name: median(v) for name, v in self_s.items()}


def per_layer(run):
    plain = samples(run["execs"], "plain")
    traced = samples(run["execs"], "traced")
    unbound = samples(run["execs"], "unbound")
    L = run["layers"]
    if not plain or not traced or not unbound or L is None:
        return {}

    def med(rows, key):
        return median([e[key] for e in rows])

    run_s = med(plain, "run_s")
    cpu_s = med(plain, "cpu_s")
    grants = med(plain, "grants_read") + med(plain, "grants_write")
    acquires = med(plain, "acquires")
    slow = med(plain, "slow_acquires")
    vcsw = med(plain, "vcsw")
    unbound_s = med(unbound, "run_s")
    replace_s = med(plain, "replace_s")
    m = {
        "topo.host_s": L["topo_host_s"],
        "workloads.build_s": med(plain, "build_s"),
        "treematch.map_s": L["treematch_map_s"],
        "treematch.threads_per_leaf": L["threads_per_leaf"],
        "comm.hop_bytes": med(plain, "hop_bytes"),
        "comm.measured_bytes": med(plain, "measured_bytes"),
        "comm.exchange_gbs": med(plain, "measured_bytes") / run_s / 1e9,
        "orwl.prepare_s": median([e["backend_s"] - e["run_s"]
                                  for e in plain]),
        "place.unbound_run_s": unbound_s,
        "place.gain": unbound_s / run_s,
        "place.epochs": med(plain, "epochs"),
        "place.replacements": med(plain, "replacements"),
        "place.migrated": med(plain, "migrated"),
        "place.rebind_failures": med(plain, "rebind_failures"),
        "place.replace_s": replace_s,
        "place.replace_share": replace_s / run_s,
        "orwl.grants": grants,
        "orwl.grants.read": med(plain, "grants_read"),
        "orwl.grants.write": med(plain, "grants_write"),
        "orwl.releases": med(plain, "releases"),
        "orwl.grants_per_s": grants / run_s,
        "orwl.cpu_per_grant_us": cpu_s / grants * 1e6 if grants else 0.0,
        "orwl.slow_acquires": slow,
        "orwl.slow_acquire_ratio": slow / acquires if acquires else 0.0,
        "orwl.acquire_wait_p50_ns": med(traced, "acquire_p50_ns"),
        "orwl.acquire_wait_p99_ns": med(traced, "acquire_p99_ns"),
        "orwl.combiner.handoffs": med(plain, "handoffs"),
        "orwl.combiner.cross_node": med(plain, "cross_node"),
        "orwl.run_p90_s": percentile([e["run_s"] for e in plain], 90),
        "sync.voluntary_csw": vcsw,
        "sync.voluntary_csw_per_grant": vcsw / grants if grants else 0.0,
        "sync.involuntary_csw": med(plain, "ivcsw"),
        "mem.location_bytes": L["location_bytes"],
        "mem.model_gbs": L["model_bytes"] / run_s / 1e9,
        "lk23.sequential_s": L.get("lk23_sequential_s", 0.0),
        "lk23.speedup": L.get("lk23_sequential_s", 0.0) / run_s,
        "sim.predict_s": L["sim_predict_s"],
        "sim.host_predicted_s": L["sim_host_s"],
        "sim.error": run_s / L["sim_host_s"],
        "sim.compute_s": L["sim_compute_s"],
        "sim.memory_s": L["sim_memory_s"],
        "sim.comm_s": L["sim_comm_s"],
        "sim.sync_s": L["sim_sync_s"],
        "sim.lock_s": L["sim_lock_s"],
        "sim.paper_predicted_s": L["sim_paper_s"],
        "sim.paper_gain": L["sim_paper_unbound_s"] / L["sim_paper_s"],
        "obs.traced_overhead": med(traced, "run_s") / run_s - 1.0,
    }
    assert [n for n, _ in PER_LAYER] == list(m)
    return m


def layer_checks(workload, m, fp, errors, notes):
    for name in MUST_MOVE["*"] + MUST_MOVE.get(workload, []):
        if not m.get(name, 0) > 0:
            errors.append(f"{name} reads {m.get(name)} on {workload}, "
                          "which exercises it")
    for name, why in KNOWN_DEAD.items():
        if m.get(name, 0) != 0:
            notes.append(f"{name} moved ({m[name]:g}); it is listed as "
                         "known-dead and the list is stale")
        else:
            notes.append(f"{name} = 0 is known-dead: {why}")
    for name, (where, why) in NOT_APPLICABLE.items():
        if workload not in where:
            notes.append(f"{name} not applicable on {workload}: {why}")
    if fp["numa_nodes"] == 1:
        notes.append("orwl.combiner.cross_node = 0 is expected: the host "
                     "has one NUMA node")


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, fp):
    mode = "traced" if trace else "e2e"
    run = measure(workload, seed, seconds, mode)
    errors = run["errors"]
    notes = [f"the host stole {run['steal_share']:.1%} of this machine's "
             "CPU time during the run; above a few percent, timings are "
             "the host's, not the program's"]
    run["failed"] += check_deterministic(run["execs"], errors)
    if trace:
        metrics = per_layer(run)
        units = dict(PER_LAYER)
        self_times = span_tree(run["spans"], errors)
        if metrics:
            layer_checks(workload, metrics, fp, errors, notes)
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
        self_times = {}
    if set(metrics) != set(units):
        errors.append("no successful measured execution: metrics missing")
    correct = not errors

    attempted, failed = run["attempted"], run["failed"]
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}"
          f"  {attempted} executions, {failed} failed")
    print(f"   host: {fp['cpu_model']}, {fp['pus']} PUs, "
          f"{fp['numa_nodes']} NUMA node(s), L3 {fp['l3']}, "
          f"kernel {fp['kernel']}")
    for name, unit in (PER_LAYER if trace else END_TO_END):
        if name in metrics:
            print(f"   {name:30s} {metrics[name]:14.6g} {unit}")
    print(f"   {'fail_ratio':30s} {failed / max(attempted, 1):14.6g} ratio")
    if self_times:
        print("   span self times (median):")
        for name, s in sorted(self_times.items()):
            print(f"     {name:28s} {s:14.6g} s")
    for n in notes:
        print(f"   note: {n}")
    for e in errors[:10]:
        print(f"   error: {e}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "fingerprint": fp, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "run_s_samples": [e["run_s"] for e in samples(run["execs"],
                                                      "plain")],
        "span_self_s": self_times, "notes": notes, "errors": errors,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["id", "parent", "exec", "name", "start_ns",
                         "end_ns"], "spans": run["spans"]}))
    return record


def stress_checks(records):
    """The cross-workload claims of the catalogue, from one traced pass
    over every workload."""
    m = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
         for r in records}
    if set(m) != set(WORKLOADS) or not all(m.values()):
        return []
    checks = [
        ("orwl.grants_per_s alltoall >= 10x lk23",
         m["alltoall"]["orwl.grants_per_s"]
         >= 10 * m["lk23"]["orwl.grants_per_s"]),
        ("orwl.grants_per_s oversub >= 10x lk23",
         m["oversub"]["orwl.grants_per_s"]
         >= 10 * m["lk23"]["orwl.grants_per_s"]),
        ("sync.involuntary_csw oversub >= 10x alltoall",
         m["oversub"]["sync.involuntary_csw"]
         >= 10 * m["alltoall"]["sync.involuntary_csw"]),
        ("place.replacements >= 1 only on phaseshift",
         all((m[w]["place.replacements"] >= 1) == (w == "phaseshift")
             for w in WORKLOADS)),
        ("place.gain > 1 on lk23", m["lk23"]["place.gain"] > 1),
    ]
    print("== stress checks")
    for name, ok in checks:
        print(f"   {'ok  ' if ok else 'FAIL'} {name}")
    return [name for name, ok in checks if not ok]


# ---------------------------------------------------------------------------
# Self-test and comparison
# ---------------------------------------------------------------------------

def selftest():
    """A program whose task throws must come back as a recorded failure
    within the deadline, and the benchmark must carry on with a new
    worker: a run just over one deadline long sees two failed attempts."""
    t0 = time.monotonic()
    run = measure("selftest_throw", 1, DEADLINE_S + 1.0, "e2e")
    took = time.monotonic() - t0
    ok = (run["attempted"] >= 2 and run["failed"] == run["attempted"]
          and took <= run["attempted"] * (DEADLINE_S + 1.0))
    print(f"selftest: {run['attempted']} attempted, {run['failed']} failed "
          f"in {took:.2f} s; first error: "
          f"{run['errors'][0] if run['errors'] else 'none'}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def compare(path_a, path_b):
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    if a["fingerprint"] != b["fingerprint"]:
        print("refusing to compare results from different hosts:")
        print(f"  {path_a}: {a['fingerprint']}")
        print(f"  {path_b}: {b['fingerprint']}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare different workloads or trace modes")
        return 3
    print(f"{a['workload']}: {path_a} -> {path_b}")
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name)
        if vb is None:
            continue
        change = (vb["value"] / va["value"] - 1.0) if va["value"] else 0.0
        print(f"  {name:30s} {va['value']:12.6g} {vb['value']:12.6g} "
              f"{change:+8.1%} {va['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not 0 <= args.seconds <= 3600 or args.seed < 0:
        fail("--seconds must be within [0, 3600] and --seed not negative")
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")

    fp = fingerprint()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), fp)
               for w in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    if args.trace and len(records) > 1 and stress_checks(records):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
