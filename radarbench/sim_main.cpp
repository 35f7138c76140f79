// radarbench_sim: host-time measurement of one simulator workload.
//
//   radarbench_sim --workload uunet-zipf --seed 7 --seconds 10 --trace 0
//
// Untraced (--trace 0): repeats set-up + run of the workload's fixed
// simulated duration until --seconds of host time have passed (at least
// three repetitions), timing the run phase in one-simulated-second slices.
// Every repetition uses the same seed, so the model metrics and exact
// counts must repeat bit for bit; the harness reports them per repetition
// and run.py checks that.
//
// Traced (--trace 1): untraced reference repetitions of the shorter traced
// duration (with heap allocations counted), then one traced replay
// (sim_replay.h) of the same inputs.
//
// Output: one JSON object on stdout with raw measurements; run.py turns it
// into metrics.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "driver/hosting_simulation.h"
#include "ledger.h"
#include "sim_replay.h"

namespace {

using radarbench::JsonOut;
using radarbench::NowNs;

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      f->workload = v;
    } else if (k == "--seed") {
      f->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      f->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      f->trace = v == "1";
    } else if (k == "--spans") {
      f->span_path = v;
    } else {
      return false;
    }
  }
  return !f->workload.empty() && argc % 2 == 1;
}

std::int64_t Distributed(radar::core::Cluster& cluster) {
  std::int64_t n = 0;
  auto& group = cluster.redirectors();
  for (int i = 0; i < group.size(); ++i) {
    n += group.At(i).requests_distributed();
  }
  return n;
}

/// One untraced repetition: set-up, sliced run, finalize.
struct Rep {
  double setup_s = 0;
  double run_s = 0;
  std::int64_t generated = 0;  ///< arrivals the schedule fires by the end
  std::int64_t attempted = 0;
  std::int64_t serviced = 0;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  std::int64_t distributed = 0;
  std::int64_t relocations = 0;
  std::int64_t affinity_drops = 0;
  std::int64_t object_copies = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::int64_t objects_without_replica = 0;
  std::int64_t replicas_total = 0;
  double latency_ms = 0;
  double bandwidth_mbhops = 0;
  double overhead_pct = 0;
  double max_load = 0;
  std::vector<double> slice_us_per_req;       ///< per host admission
  std::vector<double> slice_us_per_redirect;  ///< per Fig. 2 decision
};

/// Arrivals HostingSimulation's deterministic schedule fires in
/// [0, duration]: gateway g fires at phase_g + k * period.
std::int64_t ScheduledArrivals(const radar::driver::SimConfig& config,
                               const radar::net::Topology& topology) {
  const auto period = static_cast<radar::SimTime>(
      static_cast<double>(radar::kMicrosPerSecond) / config.node_request_rate);
  std::int64_t n = 0;
  for (const radar::NodeId g : topology.GatewayNodes()) {
    const radar::SimTime phase = period * static_cast<radar::SimTime>(g) /
                                 static_cast<radar::SimTime>(topology.num_nodes());
    if (phase <= config.duration) n += (config.duration - phase) / period + 1;
  }
  return n;
}

Rep RunOnce(const radarbench::SimWorkload& w, std::uint64_t seed,
            double sim_seconds, bool slices) {
  Rep rep;
  const std::int64_t t0 = NowNs();
  const radar::driver::SimConfig config =
      radarbench::MakeConfig(w, seed, sim_seconds);
  auto sim = std::make_unique<radar::driver::HostingSimulation>(
      config, radarbench::MakeTopology(w));
  sim->StepUntil(0);
  const std::int64_t t1 = NowNs();
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;

  const radar::SimTime step = slices ? radar::SecondsToSim(1.0)
                                     : radar::SecondsToSim(sim_seconds);
  rep.slice_us_per_req.reserve(static_cast<std::size_t>(sim_seconds) + 1);
  rep.slice_us_per_redirect.reserve(static_cast<std::size_t>(sim_seconds) + 1);
  const auto admitted = [&] {
    std::int64_t n = 0;
    for (radar::NodeId h = 0; h < sim->topology().num_nodes(); ++h) {
      n += sim->server(h).admitted();
    }
    return n;
  };
  radarbench::StartAllocCount();
  std::int64_t last_distributed = Distributed(sim->cluster());
  std::int64_t last_admitted = admitted();
  std::int64_t last_ns = NowNs();
  for (radar::SimTime t = step; t <= config.duration; t += step) {
    sim->StepUntil(t);
    if (!slices) continue;
    const std::int64_t now_ns = NowNs();
    const std::int64_t d = Distributed(sim->cluster());
    const std::int64_t a = admitted();
    const auto us = static_cast<double>(now_ns - last_ns) * 1e-3;
    if (d > last_distributed && a > last_admitted) {
      rep.slice_us_per_redirect.push_back(
          us / static_cast<double>(d - last_distributed));
      rep.slice_us_per_req.push_back(us / static_cast<double>(a - last_admitted));
    }
    last_distributed = d;
    last_admitted = a;
    // The bookkeeping above is not charged to the next slice.
    last_ns = NowNs();
  }
  const radar::driver::RunReport report = sim->Finalize();
  rep.run_s = static_cast<double>(NowNs() - t1) * 1e-9;
  rep.allocs = radarbench::StopAllocCount();

  rep.generated = ScheduledArrivals(config, sim->topology());
  rep.serviced = report.total_requests;
  rep.dropped = report.dropped_requests;
  rep.failed = report.availability.failed_requests;
  rep.attempted = rep.serviced + rep.dropped + rep.failed;
  rep.distributed = Distributed(sim->cluster());
  rep.relocations = report.TotalRelocations();
  rep.affinity_drops = report.affinity_drops;
  rep.object_copies = report.object_copies;
  rep.events = sim->events_executed();
  const auto& group = sim->cluster().redirectors();
  for (radar::ObjectId x = 0; x < config.num_objects; ++x) {
    if (group.For(x).ReplicaCount(x) < 1) ++rep.objects_without_replica;
  }
  rep.replicas_total = group.TotalReplicasAndObjects().first;
  rep.latency_ms = report.EquilibriumLatency() * 1e3;
  rep.bandwidth_mbhops = report.EquilibriumBandwidthRate() * 1e-6;
  rep.overhead_pct = report.traffic.OverheadPercent();
  const std::size_t n = report.CompleteBuckets(report.max_load.num_buckets());
  const std::size_t tail = std::max<std::size_t>(1, n / 4);
  rep.max_load = report.max_load.MaxOver(n - tail, n - 1);
  return rep;
}

void EmitRep(JsonOut& j, const Rep& r) {
  j.Open();
  j.Key("setup_s").Num(r.setup_s);
  j.Key("run_s").Num(r.run_s);
  j.Key("generated").Int(r.generated);
  j.Key("attempted").Int(r.attempted);
  j.Key("serviced").Int(r.serviced);
  j.Key("dropped").Int(r.dropped);
  j.Key("failed").Int(r.failed);
  j.Key("distributed").Int(r.distributed);
  j.Key("relocations").Int(r.relocations);
  j.Key("affinity_drops").Int(r.affinity_drops);
  j.Key("object_copies").Int(r.object_copies);
  j.Key("events").Int(static_cast<std::int64_t>(r.events));
  j.Key("allocs").Int(static_cast<std::int64_t>(r.allocs));
  j.Key("objects_without_replica").Int(r.objects_without_replica);
  j.Key("replicas_total").Int(r.replicas_total);
  j.Key("model").Open();
  j.Key("latency_ms").Num(r.latency_ms);
  j.Key("bandwidth_mbhops").Num(r.bandwidth_mbhops);
  j.Key("overhead_pct").Num(r.overhead_pct);
  j.Key("max_load").Num(r.max_load);
  j.Close();
  j.Close();
}

/// Repeats RunOnce until `seconds` of host time passed and at least
/// `min_reps` ran.
std::vector<Rep> Repeat(const radarbench::SimWorkload& w, std::uint64_t seed,
                        double sim_seconds, double seconds, int min_reps,
                        bool slices) {
  std::vector<Rep> reps;
  const std::int64_t start = NowNs();
  while (static_cast<int>(reps.size()) < min_reps ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    reps.push_back(RunOnce(w, seed, sim_seconds, slices));
  }
  return reps;
}

void EmitLedger(JsonOut& j, const radarbench::Ledger& ledger) {
  j.Key("rows").Open();
  for (const auto& row : ledger.rows()) {
    j.Key(row.name).Open();
    j.Key("calls").Int(static_cast<std::int64_t>(row.calls));
    j.Key("timed_calls").Int(static_cast<std::int64_t>(row.timed_calls));
    j.Key("self_ns").Int(row.self_ns);
    j.Key("total_ns").Int(row.total_ns);
    j.Key("child_spans").Int(static_cast<std::int64_t>(row.child_spans));
    j.Close();
  }
  j.Close();
}

int RunTraced(const Flags& flags, const radarbench::SimWorkload& w) {
  // Untraced reference runs of the real engine and traced replays of the
  // same inputs, interleaved so drift on the host hits both alike.
  constexpr int kPairs = 3;
  double inner_ns = 0;
  double pair_ns = 0;
  double count_ns = 0;
  radarbench::Ledger::Calibrate(&inner_ns, &pair_ns, &count_ns);

  const radar::net::Topology topology = radarbench::MakeTopology(w);
  const radar::driver::SimConfig config =
      radarbench::MakeConfig(w, flags.seed, w.trace_sim_seconds);
  std::vector<Rep> reps;
  std::vector<radarbench::ReplayCounts> replays;
  radarbench::Ledger ledger;
  for (int i = 0; i < kPairs; ++i) {
    reps.push_back(RunOnce(w, flags.seed, w.trace_sim_seconds, false));
    radarbench::Ledger rep_ledger;
    rep_ledger.SetSpanCapacity(i == 0 ? (1u << 18) : 0);
    replays.push_back(radarbench::RunTracedReplay(config, topology, rep_ledger));
    if (i == 0) {
      ledger = std::move(rep_ledger);
    } else {
      ledger.Merge(rep_ledger);
    }
  }
  if (!flags.span_path.empty() && !ledger.WriteSpans(flags.span_path)) {
    std::cerr << "radarbench_sim: cannot write " << flags.span_path << "\n";
    return 1;
  }
  const radarbench::ReplayCounts& c = replays.front();
  std::vector<double> replay_run_ns;
  for (const radarbench::ReplayCounts& r : replays) {
    replay_run_ns.push_back(static_cast<double>(r.run_ns));
  }

  JsonOut j;
  j.Open();
  j.Key("workload").Str(w.name);
  j.Key("trace").Bool(true);
  j.Key("reps").OpenArray();
  for (const Rep& r : reps) EmitRep(j, r);
  j.CloseArray();
  j.Key("calibration").Open();
  j.Key("inner_ns").Num(inner_ns);
  j.Key("pair_ns").Num(pair_ns);
  j.Key("count_ns").Num(count_ns);
  j.Close();
  j.Key("replay").Open();
  j.Key("serviced").Int(c.serviced);
  j.Key("dropped").Int(c.dropped);
  j.Key("failed").Int(c.failed);
  j.Key("attempted").Int(c.serviced + c.dropped + c.failed);
  j.Key("generated").Int(c.generated);
  j.Key("in_flight").Int(c.in_flight);
  j.Key("distributed").Int(c.distributed);
  j.Key("relocations").Int(c.relocations);
  j.Key("affinity_drops").Int(c.affinity_drops);
  j.Key("object_copies").Int(c.object_copies);
  j.Key("events").Int(static_cast<std::int64_t>(c.events));
  j.Key("run_ns").Array(replay_run_ns);
  j.Key("net_build_s").Num(c.net_build_s);
  j.Key("place_initial_s").Num(c.place_initial_s);
  j.Key("path_hops").Int(c.path_hops);
  j.Key("linkstats_hops").Int(c.linkstats_hops);
  j.Key("record_unhosted").Int(c.record_unhosted);
  j.Key("objects_scanned").Int(c.objects_scanned);
  j.Key("objects_ticked").Int(c.objects_ticked);
  j.Key("reduce_attempts").Int(c.reduce_attempts);
  j.Key("drops_granted").Int(c.drops_granted);
  j.Key("create_attempts").Int(c.create_attempts);
  j.Key("create_accepted").Int(c.create_accepted);
  j.Key("objects_without_replica").Int(c.objects_without_replica);
  j.Key("spans_sampled").Int(static_cast<std::int64_t>(ledger.spans().size()));
  EmitLedger(j, ledger);
  j.Close();
  j.Close();
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: radarbench_sim --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n";
    return 2;
  }
  const radarbench::SimWorkload* w = radarbench::FindSimWorkload(flags.workload);
  if (w == nullptr) {
    std::cerr << "radarbench_sim: unknown workload " << flags.workload << "\n";
    return 2;
  }
  if (flags.trace) return RunTraced(flags, *w);

  const std::vector<Rep> reps =
      Repeat(*w, flags.seed, w->sim_seconds, flags.seconds, 3, true);
  JsonOut j;
  j.Open();
  j.Key("workload").Str(w->name);
  j.Key("trace").Bool(false);
  j.Key("peak_rss_mb").Num(radarbench::PeakRssMb());
  j.Key("reps").OpenArray();
  for (const Rep& r : reps) EmitRep(j, r);
  j.CloseArray();
  std::vector<double> per_req;
  std::vector<double> per_redirect;
  for (const Rep& r : reps) {
    per_req.insert(per_req.end(), r.slice_us_per_req.begin(),
                   r.slice_us_per_req.end());
    per_redirect.insert(per_redirect.end(), r.slice_us_per_redirect.begin(),
                        r.slice_us_per_redirect.end());
  }
  j.Key("slice_us_per_req").Array(per_req);
  j.Key("slice_us_per_redirect").Array(per_redirect);
  j.Close();
  std::cout << j.str() << "\n";
  return 0;
}
