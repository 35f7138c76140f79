#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric by name.

    python3 radarbench/run.py --workload uunet-zipf --seed 7 --seconds 20 --trace 0

Builds the library and the benchmark harness from source (radarbench/
CMakeLists.txt, into .bench_build/ under the repository root), runs the
named workload with inputs generated from --seed, checks the outputs, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger. Progress and the correctness checks go to stderr. See
README.md in this directory for the workloads and the metric-to-layer map.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "radarbench"
TARGETS = ["radarbench_sim", "radarbench_loadgen", "radar_hostd", "radar_redirectd"]

SIM_WORKLOADS = ("uunet-zipf", "ts10k-zipf", "uunet-zipf-1m")
LOOPBACK = "loopback-daemons"
WORKLOADS = SIM_WORKLOADS + (LOOPBACK,)

# Loopback phases, in order: a warm-up (checked, not reported), the
# headline open-loop rate (well under the daemons' capacity; its protocol
# counts are reported), then rounds of latency runs (one user who waits
# for each answer before sending the next request; the latency figures are
# medians over LATENCY_RUNS runs) and closed-loop runs that keep
# CLOSED_WINDOW requests outstanding (the answered rate is the capacity of
# the platform and the generator together; req_per_s is the median of
# CLOSED_RUNS runs), then a ladder of open-loop steps at fixed fractions of
# that capacity, which finds the highest rate that still meets the latency
# limit with every request answered and no growing backlog (max_ok_rate).
# Shares are of --seconds. README.md says why it is measured this way.
LOOPBACK_OBJECTS = 1000
LOOPBACK_HOSTS = 3
WARMUP_RATE = 20000
WARMUP_SECONDS = 0.5
HEADLINE_RATE = 20000
HEADLINE_SHARE = 0.05
LATENCY_SHARE = 0.4
LATENCY_RUNS = 48
CLOSED_SHARE = 0.2
CLOSED_RUNS = 8
CLOSED_WINDOW = 1024
# Phase numbers (they also seed each phase's draws): 0 warm-up, 1 headline,
# then the latency runs, the closed-loop runs and the ladder steps.
LATENCY_PHASE = 2
CLOSED_PHASE = LATENCY_PHASE + LATENCY_RUNS
LADDER_PHASE = CLOSED_PHASE + CLOSED_RUNS
LADDER_SHARE = 0.25
LADDER_ATTEMPTS = 3
LADDER_FRACS = (0.6, 0.75, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1)
P99_LIMIT_US = 5000.0
LOOPBACK_SETUPS = 41
# The closed-loop rate is the median over this many equal time slices of
# the phase, so a host stall costs one slice, not the figure.
CLOSED_SLICES = 10
# The ladder's open-loop p99 is the median over consecutive windows of
# this many requests of each window's p99. A 4-vCPU guest on a busy host
# stalls for 1-15 ms several times a second; in an open loop a stall is
# charged to every request queued behind it, so a window holds 10 requests
# beyond its p99 and one stall decides that window only.
WINDOW_REQUESTS = 1000
# What the closed-loop runs and the ladder steps keep of each request.
RATE_COLUMNS = ("due", "done", "status", "redirected")
# Every binlog record carries a fixed header before the frame bytes
# (binlog/binlog.h kRecordHeaderSize).
BINLOG_RECORD_HEADER = 32

# The traced ledger states its own tolerance: reconciling the traced replay
# (minus the tracer's calibrated cost) against the untraced real engine.
# On ts10k-zipf and uunet-zipf-1m they agree within ~7 %; on uunet-zipf
# (~500 ns/req) the two engines' speed ratio moved between 1.0 and 1.34
# from one process to the next on a 4-vCPU KVM guest, whatever the seed.
LEDGER_TOLERANCE = 0.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def rank(q, n):
    """Nearest rank (1-based) of percentile q among n samples."""
    return math.ceil(q * n / 100.0 - 1e-9)


def percentile(values, q):
    """Nearest-rank percentile q (0..100) of a non-empty list."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, rank(q, len(s)) - 1))]


def tail_percentile(values, wanted=99.0):
    """The highest of the standard percentiles (up to `wanted`) that has at
    least ten samples beyond it, with that percentile and the sample count.
    Returns (value, percentile, count); percentile is None when fewer than
    eleven samples exist (the value is then the maximum)."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if q > wanted:
            continue
        beyond = n - rank(q, n)
        if beyond >= 10:
            return percentile(values, q), q, n
    return max(values), None, n


class Phase:
    """One generator phase: one integer array per request field."""

    __slots__ = ("object", "host", "due", "sent", "redirected", "fetch_sent", "done",
                 "status", "redirect_send_ns", "fetch_send_ns")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, array("q"))

    def __len__(self):
        return len(self.status)

    @classmethod
    def of(cls, records):
        """A phase from a list of per-request dicts (used by the self-tests)."""
        phase = cls()
        for r in records:
            for name in cls.__slots__:
                getattr(phase, name).append(r[name])
        return phase


def read_phases(path, columns=Phase.__slots__):
    """The generator's binary output: per phase, its number and request
    count, then one column of int64 per field in Phase order. Columns not
    asked for are skipped (left empty)."""
    phases = {}
    with open(path, "rb") as f:
        while True:
            head = array("q")
            try:
                head.fromfile(f, 2)
            except EOFError:
                return phases
            number, n = head
            phase = Phase()
            for name in Phase.__slots__:
                if name in columns:
                    getattr(phase, name).fromfile(f, n)
                else:
                    f.seek(8 * n, os.SEEK_CUR)
            phases[number] = phase


def open_loop_latencies_us(phase):
    """Per-request latency of an open-loop phase, in microseconds, measured
    from when each request was due (not from when it was sent), so a stall
    in the generator or the system is charged to every request queued
    behind it. Unanswered requests are None."""
    return [(done - due) / 1e3 if status == 1 else None
            for due, done, status in zip(phase.due, phase.done, phase.status)]


def backlog_grew(latencies_us):
    """True when the last fifth of a phase waited clearly longer than the
    first fifth: the queue was still growing when the phase ended."""
    n = len(latencies_us)
    if n < 50:
        return False
    head = statistics.median(latencies_us[: n // 5])
    tail = statistics.median(latencies_us[-(n // 5):])
    return tail > 2.0 * head + 200.0


# ------------------------------------------------------------------- metrics

def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_units(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def emit(spec, trace, correct, attempted, failed, values):
    """Builds the result object; every metric must be declared in
    BENCHMARK.json and every declared metric must be present."""
    units = metric_units(spec, trace)
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or missing:
        raise RuntimeError(f"metric set mismatch: unknown={unknown} missing={missing}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


class Checks:
    """Correctness checks, printed beside the metrics; any failure makes
    the run incorrect."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok)))
        log(f"check {'PASS' if ok else 'FAIL'}: {name} {detail}")

    @property
    def ok(self):
        return all(ok for _, ok in self.results)


# ---------------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target"] + TARGETS,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_json(cmd, timeout, preexec_fn=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=timeout, text=True, check=True, preexec_fn=preexec_fn)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -------------------------------------------------------------- sim workloads

EXACT = ("generated", "attempted", "serviced", "dropped", "failed", "distributed",
         "relocations", "affinity_drops", "object_copies", "events", "allocs",
         "replicas_total")


def check_sim_reps(checks, reps):
    first = reps[0]
    for r in reps:
        accounted = r["serviced"] + r["dropped"] + r["failed"]
        checks.check("serviced + dropped + failed <= generated (rest in flight at the end)",
                     accounted <= r["generated"] and r["distributed"] >= accounted,
                     f"({r['serviced']}+{r['dropped']}+{r['failed']} of {r['generated']})")
        checks.check("objects_lost == 0 (every object keeps >=1 replica)",
                     r["objects_without_replica"] == 0,
                     f"(without replica: {r['objects_without_replica']})")
    same_model = all(r["model"] == first["model"] for r in reps)
    same_counts = all(all(r[k] == first[k] for k in EXACT) for r in reps)
    checks.check(f"model metrics repeat exactly across {len(reps)} runs of one seed",
                 same_model, json.dumps(first["model"]))
    checks.check("deterministic counts repeat exactly", same_counts,
                 json.dumps({k: first[k] for k in EXACT}))
    checks.check("no request dropped or failed", first["dropped"] + first["failed"] == 0)


def slice_medians(slices, reps):
    """Per one-simulated-second slice, the median over the repetitions of
    its host cost. Every repetition runs the same seed, so slice k does the
    same simulated work in each (the deterministic-count check holds them
    to it); a host stall lands in one repetition's slice and is dropped
    here, while a slice that costs more in every repetition (a placement
    round) keeps its cost. `slices` is the repetitions' slices one after
    another."""
    n = len(slices) // reps
    if n * reps != len(slices):
        raise RuntimeError(f"{len(slices)} slices do not split into {reps} repetitions")
    return [statistics.median(slices[k + r * n] for r in range(reps)) for k in range(n)]


def sim_end_to_end(out, checks):
    reps = out["reps"]
    check_sim_reps(checks, reps)
    first = reps[0]
    req_slices = slice_medians(out["slice_us_per_req"], len(reps))
    redirect_slices = slice_medians(out["slice_us_per_redirect"], len(reps))
    p50 = percentile(req_slices, 50)
    p99, q, n = tail_percentile(req_slices)
    rp99, rq, rn = tail_percentile(redirect_slices)
    log(f"slices: req p{q} over {n}, redirect p{rq} over {rn}")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "req_per_s": statistics.median(r["attempted"] / r["run_s"] for r in reps),
        "peak_rss_mb": out["peak_rss_mb"],
        "answered_frac": first["serviced"] / first["attempted"],
        "model.latency_ms": first["model"]["latency_ms"],
        "model.bandwidth_mbhops": first["model"]["bandwidth_mbhops"],
        "model.overhead_pct": first["model"]["overhead_pct"],
        "model.max_load": first["model"]["max_load"],
        "req_p50_us": p50,
        "req_p99_us": p99,
        "redirect_p99_us": rp99,
        "max_ok_rate": 1e6 / p99,
    }
    return values, first["attempted"], first["dropped"] + first["failed"]


def sim_ledger(out, checks):
    """Per-layer metrics of a traced sim run (see README.md)."""
    reps = out["reps"]
    check_sim_reps(checks, reps)
    ref = reps[0]
    rp = out["replay"]
    rows = rp["rows"]
    cal = out["calibration"]
    inner = cal["inner_ns"]
    npairs = len(rp["run_ns"])
    req = rp["attempted"]

    checks.check("traced replay reproduces the request count",
                 rp["attempted"] == ref["attempted"] and rp["serviced"] == ref["serviced"]
                 and rp["generated"] == ref["generated"],
                 f"({rp['attempted']} vs {ref['attempted']})")
    checks.check("serviced + dropped + failed + in flight == generated",
                 rp["serviced"] + rp["dropped"] + rp["failed"] + rp["in_flight"]
                 == rp["generated"],
                 f"({rp['serviced']}+{rp['dropped']}+{rp['failed']}+{rp['in_flight']} "
                 f"of {rp['generated']})")
    checks.check("traced replay reproduces requests_distributed",
                 rp["distributed"] == ref["distributed"],
                 f"({rp['distributed']} vs {ref['distributed']})")
    checks.check("traced replay reproduces the event count",
                 rp["events"] == ref["events"])
    log(f"relocations: replay {rp['relocations']} (drops {rp['affinity_drops']}, "
        f"copies {rp['object_copies']}) / real run {ref['relocations']} "
        f"(drops {ref['affinity_drops']}, copies {ref['object_copies']})")
    checks.check("traced replay reproduces the relocation totals",
                 (rp["relocations"], rp["affinity_drops"], rp["object_copies"])
                 == (ref["relocations"], ref["affinity_drops"], ref["object_copies"]))
    checks.check("traced replay: objects_lost == 0", rp["objects_without_replica"] == 0)

    def calls(name):
        return rows[name]["calls"] / npairs

    def ns_per_call(name):
        row = rows[name]
        if row["timed_calls"] == 0:
            return 0.0
        return max(0.0, row["self_ns"] / row["timed_calls"] - inner)

    ledger_ns = sum(calls(name) * ns_per_call(name) for name in rows) / req
    # Best of the interleaved pairs: host interference only ever adds time.
    untraced = min(r["run_s"] for r in reps) * 1e9 / req
    traced = min(rp["run_ns"]) / req
    timed = sum(r["timed_calls"] for r in rows.values()) / npairs
    counted = sum(r["calls"] for r in rows.values()) / npairs - timed
    tracer_ns = (timed * cal["pair_ns"] + counted * cal["count_ns"]) / req
    reconcile = abs(traced - tracer_ns - untraced) / untraced
    log(f"ledger: untraced {untraced:.1f} ns/req, traced {traced:.1f}, tracer "
        f"{tracer_ns:.1f}, ledger sum {ledger_ns:.1f}, reconcile err {reconcile:.3f}")
    checks.check(f"ledger reconciles within its stated error {LEDGER_TOLERANCE}",
                 reconcile <= LEDGER_TOLERANCE, f"(err {reconcile:.3f})")

    placement_rounds = calls("core.placement_round")
    ticks = calls("core.measurement_tick")
    scanned = rp["objects_scanned"]
    ticked = rp["objects_ticked"]
    values = zero_ledger()
    values.update({
        "sim.events_per_req": rp["events"] / req,
        "sim.queue_ns_per_event": (calls("sim.queue_push") * ns_per_call("sim.queue_push")
                                   + calls("sim.queue_pop") * ns_per_call("sim.queue_pop"))
        / rp["events"],
        "core.redirector.choose_ns": ns_per_call("core.redirector_choose"),
        "core.host.record_ns": ns_per_call("core.host_record"),
        "core.host.path_hops_per_req": rp["path_hops"] / rp["serviced"],
        "core.host.unhosted_frac": rp["record_unhosted"] / calls("core.host_record"),
        "core.placement.round_ns_per_object":
            ns_per_call("core.placement_round") * placement_rounds / max(1, scanned),
        "core.placement.tick_ns_per_object": ns_per_call("core.measurement_tick") * ticks
        / max(1, ticked),
        "core.placement.objects_scanned_per_req": scanned / req,
        "core.placement.drop_grant_frac": rp["drops_granted"] / max(1, rp["reduce_attempts"]),
        "core.placement.create_accept_frac":
            rp["create_accepted"] / max(1, rp["create_attempts"]),
        "net.lookups_per_req": sum(calls(n) for n in ("net.control", "net.transfer",
                                                       "net.append_path", "net.hop_row")) / req,
        "net.control_ns": ns_per_call("net.control"),
        "net.transfer_ns": ns_per_call("net.transfer"),
        "net.path_ns": ns_per_call("net.append_path"),
        "net.linkstats_ns_per_hop": ns_per_call("net.linkstats_record")
        * calls("net.linkstats_record") / max(1, rp["linkstats_hops"]),
        "net.build_s": rp["net_build_s"],
        "workload.sample_ns": ns_per_call("workload.fill_batch") / 256.0,
        "driver.residual_ns_per_req": untraced - ledger_ns,
        "driver.allocs_per_req": ref["allocs"] / ref["attempted"],
        "driver.place_initial_s": rp["place_initial_s"],
        "ledger.reconcile_err_frac": reconcile,
        "ledger.trace_overhead_frac": (traced - untraced) / untraced,
    })
    return values, req, rp["dropped"] + rp["failed"]


def zero_ledger():
    """Every per-layer metric starts at 0: a layer a workload does not
    exercise reports no work (README.md lists which apply where)."""
    return {name: 0.0 for name in metric_units(load_spec(), True)}


def run_sim(workload, seed, seconds, trace):
    cmd = [str(BUILD / "radarbench_sim"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = WORK / "spans" / f"{workload}-{seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    out = run_json(cmd, timeout=170)
    raw = WORK / "raw" / f"{workload}-{seed}-{int(trace)}.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    raw.write_text(json.dumps(out))
    checks = Checks()
    if trace:
        values, attempted, failed = sim_ledger(out, checks)
    else:
        values, attempted, failed = sim_end_to_end(out, checks)
    return checks, values, attempted, failed


# ------------------------------------------------------------------- loopback

def platform_cpu():
    """The one CPU the daemons and the generator run on (see Platform)."""
    return max(os.sched_getaffinity(0))


def pin_to_platform_cpu():
    os.sched_setaffinity(0, {platform_cpu()})


class Platform:
    """One redirectd + LOOPBACK_HOSTS hostd on 127.0.0.1, torn down (and
    waited for) on exit. The daemons run with RADAR_DEBUG=1, which logs
    connection-lifecycle events only, so a failed check can be traced to a
    dropped connection from their logs.

    The daemons and the generator all run on one CPU. The generator spins
    while it waits, so that CPU never idles: a daemon woken by a frame runs
    at once on a CPU that is already awake, instead of waiting for the
    host to wake an idle vCPU (which takes milliseconds when the host is
    busy), and a host stall hits the platform through one vCPU, not four.
    Capacity is then the CPU cost of a request summed over every process
    on its path."""

    def __init__(self, work, port_base):
        self.work = work
        self.port_base = port_base
        self.procs = {}
        if work.exists():
            shutil.rmtree(work)
        (work / "state").mkdir(parents=True)
        (work / "spool").mkdir()
        lines = [f"0 redirector 127.0.0.1 {port_base}"]
        lines += [f"{i} host 127.0.0.1 {port_base + i}" for i in range(1, LOOPBACK_HOSTS + 1)]
        lines.append(f"{LOOPBACK_HOSTS + 1} client 127.0.0.1 0")
        self.config = work / "nodes.conf"
        self.config.write_text("\n".join(lines) + "\n")
        self.client_id = LOOPBACK_HOSTS + 1

    def spawn(self, node, cmd, log_name):
        with open(self.work / log_name, "w") as err:
            self.procs[node] = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                                env=dict(os.environ, RADAR_DEBUG="1"))

    def start(self):
        """Launches the daemons; returns seconds until every host attached."""
        t0 = time.perf_counter()
        w = self.work
        self.spawn(0, [str(BUILD / "radar-redirectd"), "--config", str(self.config),
                       "--num-objects", str(LOOPBACK_OBJECTS), "--spool-dir", str(w / "spool"),
                       "--capture", str(w / "capture.binlog"),
                       "--summary", str(w / "redirectd.json"), "--poll-ms", "5"],
                   "redirectd.log")
        for i in range(1, LOOPBACK_HOSTS + 1):
            self.spawn(i, [str(BUILD / "radar-hostd"), "--config", str(self.config),
                           "--id", str(i), "--num-objects", str(LOOPBACK_OBJECTS),
                           "--state-dir", str(w / "state"), "--spool-dir", str(w / "spool"),
                           "--summary", str(w / f"hostd-{i}.json"), "--poll-ms", "5"],
                       f"hostd-{i}.log")
        deadline = t0 + 30
        while time.perf_counter() < deadline:
            if all((w / "state" / f"ready-{i}").exists() for i in range(1, LOOPBACK_HOSTS + 1)):
                setup_s = time.perf_counter() - t0
                try:
                    for p in self.procs.values():
                        os.sched_setaffinity(p.pid, {platform_cpu()})
                except ProcessLookupError as e:
                    raise RuntimeError("a daemon exited right after set-up") from e
                return setup_s
            for i, p in self.procs.items():
                if p.poll() is not None:
                    raise RuntimeError(f"daemon {i} on ports {self.port_base}+ exited "
                                       f"early ({p.returncode})")
            time.sleep(0.001)
        raise RuntimeError("hosts never attached to the redirector")

    def load(self, seed, first_phase, rates, seconds, out, window=CLOSED_WINDOW):
        """Runs the generator's phases; returns its summary."""
        return run_json([str(BUILD / "radarbench_loadgen"), "load",
                         "--config", str(self.config), "--id", str(self.client_id),
                         "--seed", str(seed), "--objects", str(LOOPBACK_OBJECTS),
                         "--first-phase", str(first_phase),
                         "--rates", ",".join(str(r) for r in rates),
                         "--phase-seconds", ",".join(str(x) for x in seconds),
                         "--window", str(window), "--out", str(out)], timeout=120,
                        preexec_fn=pin_to_platform_cpu)

    def peak_rss_mb(self):
        total = 0.0
        for p in self.procs.values():
            with open(f"/proc/{p.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def shutdown(self):
        """Orderly shutdown. The redirector goes first and the hosts only
        once it has exited: it prunes the replicas of hosts that disconnect,
        so its exit summary is only meaningful if every host was still up
        when it was written. (A host told to stop right after the
        redirector can win that race when the redirector is descheduled.)"""
        for targets in ([0], range(1, LOOPBACK_HOSTS + 1)):
            subprocess.run([str(BUILD / "radarbench_loadgen"), "shutdown", "--config",
                            str(self.config), "--id", str(self.client_id),
                            "--targets", ",".join(str(i) for i in targets)],
                           stdout=sys.stderr, stderr=sys.stderr, timeout=60, check=True)
            for i in targets:
                self.procs[i].wait(timeout=30)
        self.procs = {}

    def kill(self):
        for p in self.procs.values():
            if p.poll() is None:
                p.kill()
        for p in self.procs.values():
            p.wait()
        self.procs = {}


def phase_span_s(phase):
    """Seconds from a phase's first due time to its last answer."""
    return (max(phase.done) - min(phase.due)) / 1e9


def achieved_rate(phase):
    """Answered requests per second over a phase."""
    return phase.status.count(1) / phase_span_s(phase)


def closed_loop_rate(phase, slices=CLOSED_SLICES):
    """Answers per second of a closed-loop phase: the median over equal
    time slices from the first request to the last answer."""
    start = min(phase.due)
    width = (max(phase.done) - start) / slices
    counts = [0] * slices
    for done, status in zip(phase.done, phase.status):
        if status == 1:
            counts[min(slices - 1, int((done - start) / width))] += 1
    return statistics.median(counts) / (width / 1e9)


def windowed_p99(phase):
    """The p99 (us) of an open-loop phase: the median over consecutive
    windows of WINDOW_REQUESTS requests of each window's p99, answered
    requests only."""
    n = len(phase)
    bounds = [(lo, lo + WINDOW_REQUESTS) for lo in range(0, n - WINDOW_REQUESTS + 1,
                                                          WINDOW_REQUESTS)] or [(0, n)]
    per_window = []
    for lo, hi in bounds:
        lat = [(phase.done[i] - phase.due[i]) / 1e3 for i in range(lo, hi)
               if phase.status[i] == 1]
        if lat:
            per_window.append(tail_percentile(lat)[0])
    return statistics.median(per_window) if per_window else math.inf


def latency_figures(phase):
    """Latency figures of one latency run (us), over the whole run,
    answered requests only: p50, p99, mean and the redirect-leg p99 (due ->
    kRedirect), and the number of requests. With one request outstanding a
    host stall delays the one request in flight, not a queue behind it."""
    lat, redirect = [], []
    for due, redirected, done, status in zip(phase.due, phase.redirected, phase.done,
                                             phase.status):
        if status == 1:
            lat.append((done - due) / 1e3)
            redirect.append((redirected - due) / 1e3)
    if not lat:
        return {"p50": math.inf, "p99": math.inf, "mean": math.inf, "redirect_p99": math.inf,
                "n": 0}
    return {"p50": percentile(lat, 50), "p99": tail_percentile(lat)[0],
            "mean": statistics.fmean(lat), "redirect_p99": tail_percentile(redirect)[0],
            "n": len(lat)}


def summarize_step(phase, rate):
    """What the ladder keeps of one open-loop step: whether it meets
    P99_LIMIT_US (windowed p99) with every request answered and no growing
    backlog, its p99, achieved rate and request counts."""
    lat = open_loop_latencies_us(phase)
    got = [x for x in lat if x is not None]
    answered = len(got) == len(lat)
    p99 = windowed_p99(phase)
    grew = backlog_grew(got)
    meets = answered and p99 <= P99_LIMIT_US and not grew
    log(f"rate {rate}/s: windowed p99 {p99:.1f} us, answered {answered}, backlog grew {grew} "
        f"-> {'meets' if meets else 'misses'} the {P99_LIMIT_US:.0f} us limit")
    return {"rate": rate, "meets": meets, "answered": answered, "grew": grew, "p99": p99,
            "achieved": achieved_rate(phase), "requests": len(lat), "ok": len(got)}


def max_ok_rate(steps):
    """The achieved rate at the highest step that meets the limit. Between
    that step and the first one that misses, the rate is interpolated where
    the p99 (log scale) crosses the limit, so one noisy step moves the
    figure by part of a step instead of a whole one."""
    best = None
    for step in steps:
        if step["meets"]:
            best = step
            continue
        if best is None:
            return 0.0
        if step["answered"] and not step["grew"] and step["p99"] > best["p99"]:
            frac = math.log(P99_LIMIT_US / best["p99"]) / math.log(step["p99"] / best["p99"])
            return best["achieved"] + (step["achieved"] - best["achieved"]) * frac
        return best["achieved"]
    return best["achieved"] if best else 0.0


def free_port_base(attempt):
    """A block of ports for one platform: below the kernel's ephemeral
    range (so no outgoing connection holds them) and different on every
    attempt, so a TIME-WAIT tuple left by a previous platform is never
    reused."""
    span = 30000 - 20000
    return 20000 + (os.getpid() * 97 + attempt * 8 + int(time.time() * 1000)) % span // 8 * 8


def start_platform(base, attempt):
    """Starts a platform, retrying on fresh ports when a daemon cannot bind.
    Returns (platform, setup seconds, next attempt number)."""
    for _ in range(5):
        platform = Platform(base, free_port_base(attempt))
        attempt += 1
        try:
            return platform, platform.start(), attempt
        except RuntimeError as e:
            log(f"platform start failed ({e}); retrying on other ports")
            platform.kill()
    raise RuntimeError("could not start the loopback platform")


def merge_loads(a, b):
    """Sums the counts of two generator summaries (clock cost from the first)."""
    out = dict(a)
    for k, v in b.items():
        if k not in ("clock_ns", "clock_reads_per_req"):
            out[k] = a[k] + v
    return out


def measured_phases(platform, seed, seconds, load, phases):
    """The latency runs, the closed-loop runs and the ladder. Adds the
    latency and closed-loop phases to `phases`; returns the merged
    generator summary, the capacity, the daemons' peak RSS before the
    ladder, the ladder's steps (the best attempt at each rate) and every
    attempt."""
    # Each is a generator run of its own; the closed-loop runs and the
    # ladder steps keep only the columns their figures need. The latency
    # runs and the closed-loop runs alternate, so that both sample the
    # whole stretch of the run instead of one part of it each.
    rates = []
    per_round = LATENCY_RUNS // CLOSED_RUNS
    for r in range(CLOSED_RUNS):
        for k in range(r * per_round, (r + 1) * per_round):
            load = merge_loads(load, platform.load(
                seed, LATENCY_PHASE + k, [0], [seconds * LATENCY_SHARE / LATENCY_RUNS],
                platform.work / "latency.bin", window=1))
            phases.update(read_phases(platform.work / "latency.bin"))
        load = merge_loads(load, platform.load(
            seed, CLOSED_PHASE + r, [0], [seconds * CLOSED_SHARE / CLOSED_RUNS],
            platform.work / "closed.bin"))
        phases.update(read_phases(platform.work / "closed.bin", RATE_COLUMNS))
        rates.append(closed_loop_rate(phases[CLOSED_PHASE + r]))
    capacity = statistics.median(rates)
    log(f"closed loop: {', '.join(f'{r:.0f}' for r in rates)} req/s")
    if not capacity > 0:
        raise RuntimeError("the closed-loop phase answered nothing in most of its slices")
    # Before the ladder: its overloaded top step grows the daemons' buffers
    # by however deep its backlog got.
    rss = platform.peak_rss_mb()
    ladder = [round(f * capacity) for f in LADDER_FRACS]
    attempt_s = seconds * LADDER_SHARE / (len(ladder) * LADDER_ATTEMPTS)
    # The ladder is judged here, step by step. A step is tried up to
    # LADDER_ATTEMPTS times and counts as met once one attempt meets the
    # limit; the ladder stops at the first step that no attempt meets (the
    # steps above it would only pile up a backlog).
    attempts, steps = [], []
    for k, rate in enumerate(ladder):
        tried = []
        for a in range(LADDER_ATTEMPTS):
            number = LADDER_PHASE + k * LADDER_ATTEMPTS + a
            load = merge_loads(load, platform.load(seed, number, [rate], [attempt_s],
                                                   platform.work / "step.bin"))
            tried.append(summarize_step(
                read_phases(platform.work / "step.bin", RATE_COLUMNS)[number], rate))
            if tried[-1]["meets"]:
                break
        attempts += tried
        steps.append(min(tried, key=lambda st: (not st["meets"], st["p99"])))
        if not steps[-1]["meets"]:
            break
    return load, capacity, rss, steps, attempts


def run_loopback(seed, seconds, trace):
    base = WORK / "loopback"
    setups = []
    attempt = 0
    for k in range(LOOPBACK_SETUPS):
        platform, setup_s, attempt = start_platform(base, attempt)
        try:
            setups.append(setup_s)
            if k < LOOPBACK_SETUPS - 1:
                platform.shutdown()
                continue
            load = platform.load(seed, 0, [WARMUP_RATE, HEADLINE_RATE],
                                 [WARMUP_SECONDS, seconds * HEADLINE_SHARE], base / "open.bin")
            phases = read_phases(base / "open.bin")
            if trace:
                # The traced run re-measures the headline's capture; the
                # capacity phases only serve end-to-end figures.
                capacity, rss, steps, attempts = None, platform.peak_rss_mb(), [], []
            else:
                load, capacity, rss, steps, attempts = measured_phases(platform, seed, seconds,
                                                                       load, phases)
            platform.shutdown()
        except (RuntimeError, subprocess.SubprocessError):
            for log_file in sorted(base.glob("*.log")):
                log(f"{log_file.name}: " + " | ".join(log_file.read_text().splitlines()[-20:]))
            raise
        finally:
            platform.kill()

    raw = {
        "phases": phases,
        "steps": steps,
        "attempts": attempts,
        "load": load,
        "redirectd": json.loads((base / "redirectd.json").read_text()),
        "hostds": [json.loads((base / f"hostd-{i}.json").read_text())
                   for i in range(1, LOOPBACK_HOSTS + 1)],
        "setups": setups,
        "rss": rss,
        "capture_bytes": (base / "capture.binlog").stat().st_size,
        "capacity": capacity,
    }
    if trace:
        raw["remeasure"] = run_json([str(BUILD / "radarbench_loadgen"), "remeasure",
                                     "--capture", str(base / "capture.binlog"),
                                     "--scratch", str(base / "remeasure.binlog"),
                                     "--id", str(LOOPBACK_HOSTS + 1)], timeout=120)
        raw["wal_bytes"] = sum((base / "state" / f"hostd-{i}.wal").stat().st_size
                               for i in range(1, LOOPBACK_HOSTS + 1))
    checks, values, attempted, failed = loopback_metrics(raw, trace)
    if not checks.ok:
        for log_file in sorted(base.glob("*.log")):
            log(f"{log_file.name}: " + " | ".join(log_file.read_text().splitlines()[-20:]))
    return checks, values, attempted, failed


def loopback_metrics(raw, trace):
    """Checks and metrics of one loopback run from its raw outputs: the
    generator's per-request phases and summaries, the daemons' exit
    summaries, the capture size and (traced) the capture re-measure and
    the WAL sizes."""
    checks = Checks()
    phases, load, redirectd, hostds = raw["phases"], raw["load"], raw["redirectd"], raw["hostds"]
    total = sum(len(p) for p in phases.values()) + sum(st["requests"] for st in raw["attempts"])
    answered = (sum(p.status.count(1) for p in phases.values())
                + sum(st["ok"] for st in raw["attempts"]))
    checks.check("every request answered and every ack accepted", answered == total,
                 f"({answered} of {total})")
    checks.check("client saw no protocol errors", load["protocol_errors"] == 0)
    checks.check("redirector summary: objects_lost == 0", redirectd["objects_lost"] == 0,
                 f"({redirectd['objects_lost']}; hosts pruned {redirectd['hosts_pruned']})")
    checks.check("redirector summary: replicas_total == objects",
                 redirectd["replicas_total"] == LOOPBACK_OBJECTS,
                 f"({redirectd['replicas_total']})")
    serviced = sum(h["requests_serviced"] for h in hostds)
    checks.check("hosts serviced exactly the accepted fetches", serviced == load["acks_accepted"],
                 f"({serviced} vs {load['acks_accepted']})")

    head = phases[1]
    if not trace:
        runs = [latency_figures(phases[LATENCY_PHASE + k]) for k in range(LATENCY_RUNS)]
        fig = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        log("latency runs, p50 (us): " + " ".join(f"{r['p50']:.1f}" for r in runs))
        log(f"latency runs (median of {LATENCY_RUNS}): p50 {fig['p50']:.1f} us, p99 "
            f"{fig['p99']:.1f} us, redirect p99 {fig['redirect_p99']:.1f} us, mean "
            f"{fig['mean']:.1f} us, {fig['n']:.0f} requests per run")
        per_host = {}
        for h in head.host:
            per_host[h] = per_host.get(h, 0) + 1
        # Every frame the redirector received is in its capture, each behind
        # a fixed record header: what is left is the protocol's own bytes.
        payload = raw["capture_bytes"] - BINLOG_RECORD_HEADER * redirectd["frames_received"]
        control = redirectd["frames_received"] - load["requests_sent"]
        values = {
            "setup_s": statistics.median(raw["setups"]),
            "req_per_s": raw["capacity"],
            "peak_rss_mb": raw["rss"],
            "answered_frac": answered / total,
            "model.latency_ms": fig["mean"] / 1e3,
            "model.bandwidth_mbhops": HEADLINE_RATE * payload / redirectd["redirects"] / 1e6,
            # Control frames (hello, announce, placement stats) against the
            # warm-up + headline request volume, which the closed-loop and
            # ladder outcomes do not change.
            "model.overhead_pct": 100.0 * control / (control + len(phases[0]) + len(head)),
            "model.max_load": max(per_host.values()) / phase_span_s(head),
            "req_p50_us": fig["p50"],
            "req_p99_us": fig["p99"],
            "redirect_p99_us": fig["redirect_p99"],
            "max_ok_rate": max_ok_rate([summarize_step(head, HEADLINE_RATE)] + raw["steps"]),
        }
        return checks, values, total, total - answered

    remeasure = raw["remeasure"]
    checks.check("codec round-trips every captured frame", remeasure["bad"] == 0)
    sent = load["requests_sent"]
    # Count ledger: each figure against a source the other side kept on its
    # own (generator, redirector summary, host summaries, capture file).
    pairs = {
        "requests: generator sent / redirector redirected":
            (sent, redirectd["redirects"]),
        "redirects: redirector / generator received":
            (redirectd["redirects"], load["redirects_received"]),
        "fetches: generator sent / hosts saw":
            (load["fetches_sent"],
             sum(h["requests_serviced"] + h["requests_unhosted"] for h in hostds)),
        "frames: redirector received / capture records":
            (redirectd["frames_received"], remeasure["records"]),
        # The client id also sends the redirector its kShutdown frame.
        "requests + shutdown: generator sent / capture frames from the client id":
            (sent + 1, remeasure["src_frames"]),
        "capture payload bytes: file size less record headers / records read":
            (raw["capture_bytes"] - BINLOG_RECORD_HEADER * remeasure["records"],
             remeasure["payload_bytes"]),
    }
    errs = {}
    for name, (x, y) in pairs.items():
        errs[name] = abs(x - y) / max(x, y, 1)
        log(f"ledger: {name}: {x} / {y}")
    reconcile = max(errs.values())
    checks.check("loopback count ledger reconciles exactly (its stated error is 0)",
                 reconcile == 0, f"(worst {max(errs, key=errs.get)}: {reconcile:.3g})")
    # Time ledger: per redirect the redirector decodes a request, encodes
    # the redirect and appends a capture record; re-measured, that work has
    # to fit inside the redirect leg the generator measured.
    leg_ns = statistics.median(r - s for r, s, st in zip(head.redirected, head.sent, head.status)
                               if st == 1)
    own_ns = remeasure["decode_ns"] + remeasure["encode_ns"] + remeasure["append_ns"]
    log(f"ledger: codec + capture append {own_ns:.0f} ns of a {leg_ns:.0f} ns redirect leg "
        f"(median)")
    checks.check("re-measured codec + binlog time fits inside the measured redirect leg",
                 own_ns < leg_ns, f"({own_ns:.0f} vs {leg_ns:.0f} ns)")
    head_lat_ns = statistics.fmean(d - u for d, u, st in zip(head.done, head.due, head.status)
                                   if st == 1)
    late_p99, _, _ = tail_percentile([(s - u) / 1e3 for s, u in zip(head.sent, head.due)])
    sends = [x for x, s in zip(head.redirect_send_ns, head.sent) if s > 0]
    sends += [x for x, s in zip(head.fetch_send_ns, head.fetch_sent) if s > 0]
    daemon_frames = (redirectd["frames_sent"] + redirectd["frames_received"]
                     + sum(h["frames_sent"] + h["frames_received"] for h in hostds))
    served = sum(h["requests_serviced"] + h["requests_unhosted"] for h in hostds)
    values = zero_ledger()
    values.update({
        "core.host.unhosted_frac": sum(h["requests_unhosted"] for h in hostds) / max(1, served),
        "wire.encode_ns": remeasure["encode_ns"],
        "wire.decode_ns": remeasure["decode_ns"],
        "wire.bytes_per_req": load["bytes"] / sent,
        "transport.send_ns": statistics.median(sends),
        "transport.frames_per_req": daemon_frames / sent,
        "transport.poll_busy_frac": load["busy_s"] / load["wall_s"],
        "transport.frames_spooled": float(load["frames_spooled"] + redirectd["frames_spooled"]
                                          + sum(h["frames_spooled"] for h in hostds)),
        "binlog.append_ns": remeasure["append_ns"],
        "binlog.capture_bytes_per_req": raw["capture_bytes"] / sent,
        "binlog.wal_bytes_per_req": raw["wal_bytes"] / sent,
        "ledger.reconcile_err_frac": reconcile,
        # The generator's span timestamps sit on every request's path, traced
        # or not: their clock reads against the mean headline latency.
        "ledger.trace_overhead_frac":
            load["clock_reads_per_req"] * load["clock_ns"] / head_lat_ns,
        "gen.late_p99_us": late_p99,
    })
    return checks, values, total, total - answered


# ----------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    build()
    if args.workload == LOOPBACK:
        checks, values, attempted, failed = run_loopback(args.seed, args.seconds, args.trace)
    else:
        checks, values, attempted, failed = run_sim(args.workload, args.seed, args.seconds,
                                                    args.trace)
    result = emit(spec, args.trace, checks.ok, attempted, failed, values)
    for name, m in result["metrics"].items():
        log(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"radarbench: error: {e}")
        sys.exit(1)
