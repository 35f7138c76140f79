#!/usr/bin/env python3
"""Self-tests of the benchmark: percentile math, open-loop timing, metric
names against BENCHMARK.json, and ledger coverage of every module.

    python3 radarbench/test_radarbench.py

The last test runs a traced simulator workload and is skipped until
run.py has built the harness.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

MODULES = ("sim", "core", "net", "workload", "driver", "wire", "transport", "binlog")


def quiet(*_):
    pass


run.log = quiet


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples: p99 has 1 beyond, p90 has 10
        self.assertEqual(run.tail_percentile(values), (90, 90.0, 100))
        values = list(range(1, 1001))
        self.assertEqual(run.tail_percentile(values), (990, 99.0, 1000))
        values = list(range(1, 10001))
        self.assertEqual(run.tail_percentile(values), (9900, 99.0, 10000))
        self.assertEqual(run.tail_percentile(values, wanted=99.9), (9990, 99.9, 10000))

    def test_too_few_samples_reports_max_and_count(self):
        self.assertEqual(run.tail_percentile([3, 1, 2]), (3, None, 3))

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(run.percentile([1, 2], 50), 1)
        self.assertEqual(run.percentile([1, 2], 100), 2)


def request(due, sent, done, status=1, host=1, redirect_ns=10):
    return {"object": 0, "host": host, "due": due, "sent": sent,
            "redirected": sent + redirect_ns, "fetch_sent": sent + redirect_ns + 10,
            "done": done, "status": status,
            "redirect_send_ns": 100, "fetch_send_ns": 100}


def phase(records):
    return run.Phase.of(records)


class OpenLoopTest(unittest.TestCase):
    def test_stall_is_charged_to_requests_queued_behind_it(self):
        # Due every 1000 ns; the generator stalls until 50 000 ns, then sends
        # everything due and each answer takes 1000 ns after sending.
        records = []
        for i in range(10):
            due = i * 1000
            sent = max(due, 50_000)
            records.append(request(due, sent, sent + 1000))
        lat = run.open_loop_latencies_us(phase(records))
        self.assertEqual(lat[0], 51.0)  # waited 50 us for the stall to end
        self.assertEqual(lat[9], 42.0)
        # Timed from sending instead, every request would read 1 us.
        self.assertTrue(all(x > 1.0 for x in lat))

    def test_unanswered_requests_have_no_latency(self):
        self.assertEqual(run.open_loop_latencies_us(phase([request(0, 0, 0, status=3)])), [None])

    def test_backlog_growth(self):
        steady = [50.0] * 100
        growing = [50.0 + 20.0 * i for i in range(100)]
        self.assertFalse(run.backlog_grew(steady))
        self.assertTrue(run.backlog_grew(growing))

    def test_max_ok_rate_interpolates_toward_the_missing_step(self):
        def step(rate, lat_us):
            n = 2000
            gap = int(1e9 / rate)
            return run.summarize_step(
                phase([request(i * gap, i * gap, i * gap + int(lat_us * 1000))
                       for i in range(n)]), rate)

        limit = run.P99_LIMIT_US
        steps = [step(1000, 100), step(2000, 100), step(3000, limit * 3)]
        got = run.max_ok_rate(steps)
        self.assertGreater(got, 2000 * 0.99)
        self.assertLess(got, 3000)
        self.assertAlmostEqual(run.max_ok_rate(steps[:2]), 2000, delta=5)
        self.assertEqual(run.max_ok_rate([step(1000, limit * 2)]), 0.0)

    def test_windowed_p99_sees_a_cost_in_every_window_but_not_one_stall(self):
        w = run.WINDOW_REQUESTS
        quiet = [100_000] * (10 * w)  # 100 us each, ten windows

        def p99(lat_ns):
            return run.windowed_p99(phase([request(i * 50_000, i * 50_000, i * 50_000 + x)
                                           for i, x in enumerate(lat_ns)]))

        self.assertEqual(p99(quiet), 100.0)
        one_stall = list(quiet)
        one_stall[3 * w: 3 * w + 50] = [5_000_000] * 50  # one 5 ms stall, one window
        self.assertEqual(p99(one_stall), 100.0)
        every_window = list(quiet)
        for k in range(10):  # the same stall in every window
            every_window[k * w: k * w + 50] = [5_000_000] * 50
        self.assertEqual(p99(every_window), 5000.0)

    def test_latency_phase_charges_a_stall_to_the_one_request_in_flight(self):
        # One request outstanding, 50 us each; a 5 ms stall delays one of
        # them, and the whole-phase p99 still reads the program's latency.
        def figures(lat_ns):
            records, t = [], 0
            for x in lat_ns:
                records.append(request(t, t, t + x, redirect_ns=x // 2))
                t += x
            return run.latency_figures(phase(records))

        steady = [50_000] * 10_000
        stalled = list(steady)
        stalled[5000] = 5_000_000
        self.assertEqual(figures(stalled)["p99"], figures(steady)["p99"])
        self.assertEqual(figures(stalled)["p50"], 50.0)
        self.assertEqual(figures(stalled)["n"], 10_000)
        slow = [60_000 if i % 20 == 0 else 50_000 for i in range(10_000)]  # 5 % slower
        self.assertEqual(figures(slow)["p99"], 60.0)

    def test_slice_medians_drop_a_stall_but_keep_a_costly_slice(self):
        # Three repetitions of 1000 slices: every 50th slice (a placement
        # round) costs 4 us in every repetition, and 30 slices of the second
        # repetition were hit by a host stall.
        rep = [4.0 if k % 50 == 0 else 1.0 for k in range(1000)]
        stalled = list(rep)
        for k in range(1, 1000, 33):
            stalled[k] = 100.0
        slices = run.slice_medians(rep + stalled + rep, 3)
        self.assertEqual(slices, rep)
        self.assertEqual(run.tail_percentile(slices)[0], 4.0)
        self.assertEqual(run.tail_percentile(rep + stalled + rep)[0], 100.0)
        with self.assertRaises(RuntimeError):
            run.slice_medians([1.0] * 10, 3)

    def test_one_stall_costs_the_closed_loop_rate_one_slice(self):
        # 1000 answers per ms for 10 ms, except that nothing is answered in
        # the fourth millisecond.
        records = [request(t * 1000, t * 1000, t * 1000 + 500) for t in range(10_000)
                   if not 3000 <= t < 4000]
        rate = run.closed_loop_rate(phase(records), slices=10)
        self.assertAlmostEqual(rate, 1e6, delta=2e4)
        self.assertLess(run.achieved_rate(phase(records)), 0.95e6)


def sim_rep():
    return {"setup_s": 0.01, "run_s": 1.0, "generated": 1010, "attempted": 1000,
            "serviced": 1000, "dropped": 0, "failed": 0, "distributed": 1002,
            "relocations": 5, "affinity_drops": 1, "object_copies": 4, "events": 3000,
            "allocs": 20, "objects_without_replica": 0, "replicas_total": 120,
            "model": {"latency_ms": 100.0, "bandwidth_mbhops": 30.0, "overhead_pct": 0.5,
                      "max_load": 70.0}}


REPLAY_ROWS = ("sim.queue_push", "sim.queue_pop", "sim.server_admit", "core.redirector_choose",
               "core.host_record", "core.measurement_tick", "core.placement_round",
               "core.create_obj", "core.replica_census", "net.control", "net.transfer",
               "net.append_path", "net.linkstats_record", "net.hop_row", "workload.fill_batch")


def sim_traced_out():
    rep = sim_rep()
    rows = {name: {"calls": 300, "timed_calls": 30, "self_ns": 30 * 50, "total_ns": 30 * 50,
                   "child_spans": 0} for name in REPLAY_ROWS}
    replay = {k: rep[k] for k in ("serviced", "dropped", "failed", "attempted", "generated",
                                  "distributed", "relocations", "affinity_drops",
                                  "object_copies", "events")}
    replay.update({"in_flight": 10, "run_ns": [1.05e9] * 3, "net_build_s": 0.001,
                   "place_initial_s": 0.002, "path_hops": 2300, "linkstats_hops": 2320,
                   "record_unhosted": 0, "objects_scanned": 500, "objects_ticked": 900,
                   "reduce_attempts": 40, "drops_granted": 4, "create_attempts": 50,
                   "create_accepted": 5, "objects_without_replica": 0, "rows": rows})
    return {"reps": [rep] * 3, "calibration": {"inner_ns": 20.0, "pair_ns": 60.0,
                                                "count_ns": 1.0}, "replay": replay}


def loopback_raw(trace):
    warmup = [request(i * 50_000, i * 50_000, i * 50_000 + 60_000) for i in range(100)]
    head = [request(i * 50_000, i * 50_000, i * 50_000 + 60_000, host=1 + i % 3,
                    redirect_ns=30_000) for i in range(20_000)]
    latency = [request(i * 55_000, i * 55_000, i * 55_000 + 55_000, redirect_ns=25_000)
               for i in range(1000)]
    closed = [request(i * 5_000, i * 5_000, i * 5_000 + 300_000) for i in range(10_000)]
    step = run.summarize_step(phase([request(i * 20_000, i * 20_000, i * 20_000 + 70_000)
                                     for i in range(5000)]), 50000)
    phases = {0: phase(warmup), 1: phase(head), run.CLOSED_PHASE: phase(closed)}
    phases.update({run.LATENCY_PHASE + k: phase(latency) for k in range(run.LATENCY_RUNS)})
    sent = sum(len(p) for p in phases.values()) + step["requests"]
    raw = {"phases": phases, "steps": [step], "attempts": [step],
           "load": {"protocol_errors": 0, "acks_accepted": sent, "requests_sent": sent,
                    "redirects_received": sent, "fetches_sent": sent, "bytes": 114 * sent,
                    "busy_s": 0.5, "wall_s": 1.5, "frames_spooled": 0, "clock_ns": 20.0,
                    "clock_reads_per_req": 6},
           "redirectd": {"objects_lost": 0, "hosts_pruned": 0,
                         "replicas_total": run.LOOPBACK_OBJECTS, "redirects": sent,
                         "frames_received": sent + 1003, "frames_sent": sent,
                         "frames_spooled": 0},
           "hostds": [{"requests_serviced": sent // 3 + (1 if i < sent % 3 else 0),
                       "requests_unhosted": 0, "frames_sent": 1, "frames_received": 1,
                       "frames_spooled": 0} for i in range(3)],
           "setups": [0.004, 0.005, 0.006], "rss": 15.0, "capacity": 2e5,
           "capture_bytes": 60 * (sent + 1003)}
    if trace:
        raw.update({"remeasure": {"bad": 0, "encode_ns": 50.0, "decode_ns": 40.0,
                                  "append_ns": 900.0, "records": sent + 1003,
                                  "payload_bytes": 28 * (sent + 1003),
                                  "src_frames": sent + 1},
                    "wal_bytes": 3000})
    return raw


class MetricNamesTest(unittest.TestCase):
    """Every printed metric name appears in BENCHMARK.json, and every name
    there is printed, on every workload kind and in both modes."""

    def setUp(self):
        self.spec = run.load_spec()

    def emitted(self, trace, values):
        return set(run.emit(self.spec, trace, True, 1, 0, values)["metrics"])

    def test_sim_untraced(self):
        out = {"reps": [sim_rep()] * 3, "peak_rss_mb": 15.0,
               "slice_us_per_req": [0.5 + (i % 500) * 1e-3 for i in range(1500)],
               "slice_us_per_redirect": [0.5 + (i % 500) * 1e-3 for i in range(1500)]}
        checks = run.Checks()
        values, _, _ = run.sim_end_to_end(out, checks)
        self.assertTrue(checks.ok)
        self.assertEqual(self.emitted(False, values),
                         {m["name"] for m in self.spec["end_to_end"]})

    def test_sim_traced(self):
        checks = run.Checks()
        values, _, _ = run.sim_ledger(sim_traced_out(), checks)
        self.assertTrue(checks.ok, checks.results)
        self.assertEqual(self.emitted(True, values), {m["name"] for m in self.spec["per_layer"]})

    def test_loopback_both_modes(self):
        for trace in (False, True):
            checks, values, attempted, failed = run.loopback_metrics(loopback_raw(trace), trace)
            self.assertTrue(checks.ok, checks.results)
            self.assertEqual(failed, 0)
            key = "per_layer" if trace else "end_to_end"
            self.assertEqual(self.emitted(trace, values), {m["name"] for m in self.spec[key]})

    def test_unknown_or_missing_names_are_refused(self):
        with self.assertRaises(RuntimeError):
            run.emit(self.spec, False, True, 1, 0, {"no_such_metric": 1.0})

    def test_end_to_end_metrics_are_never_zero(self):
        out = {"reps": [sim_rep()] * 3, "peak_rss_mb": 15.0,
               "slice_us_per_req": [0.5] * 300, "slice_us_per_redirect": [0.5] * 300}
        values, _, _ = run.sim_end_to_end(out, run.Checks())
        self.assertTrue(all(v > 0 for v in values.values()), values)
        _, values, _, _ = run.loopback_metrics(loopback_raw(False), False)
        self.assertTrue(all(v > 0 for v in values.values()), values)


class LedgerTest(unittest.TestCase):
    def test_every_module_has_a_ledger_row(self):
        per_layer = {m["name"].split(".")[0] for m in run.load_spec()["per_layer"]}
        for module in MODULES:
            self.assertIn(module, per_layer)

    def test_loopback_count_ledger_catches_a_lost_frame(self):
        raw = loopback_raw(True)
        checks, values, _, _ = run.loopback_metrics(raw, True)
        self.assertTrue(checks.ok, checks.results)
        self.assertEqual(values["ledger.reconcile_err_frac"], 0.0)
        raw["redirectd"]["redirects"] -= 1
        checks, values, _, _ = run.loopback_metrics(raw, True)
        self.assertFalse(checks.ok)
        self.assertGreater(values["ledger.reconcile_err_frac"], 0.0)

    def test_replay_breaks_a_broken_reproduction(self):
        out = sim_traced_out()
        out["replay"]["distributed"] += 1
        checks = run.Checks()
        run.sim_ledger(out, checks)
        self.assertFalse(checks.ok)

    @unittest.skipUnless((run.BUILD / "radarbench_sim").exists(),
                         "run.py has not built the harness yet")
    def test_traced_replay_rows_cover_the_simulator_modules(self):
        proc = subprocess.run([str(run.BUILD / "radarbench_sim"), "--workload", "uunet-zipf",
                               "--seed", "1", "--seconds", "1", "--trace", "1"],
                              capture_output=True, text=True, check=True, timeout=170)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        modules = {name.split(".")[0] for name in out["replay"]["rows"]}
        self.assertEqual(modules, {"sim", "core", "net", "workload"})
        checks = run.Checks()
        run.sim_ledger(out, checks)
        self.assertTrue(checks.ok, checks.results)


if __name__ == "__main__":
    unittest.main()
