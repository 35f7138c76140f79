#include "sim_replay.h"

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "driver/hosting_simulation.h"
#include "net/link_stats.h"
#include "net/net_model.h"
#include "net/topology_gen.h"
#include "net/uunet.h"
#include "sim/event_queue.h"
#include "sim/fcfs_server.h"
#include "workload/workload.h"

namespace radarbench {
namespace {

using radar::NodeId;
using radar::ObjectId;
using radar::SimTime;
using radar::kInvalidNode;

// Why these three (see README.md): the Table 1 point exercises the request
// path; the 10k-node transit-stub graph moves the weight onto the sparse
// latency oracle; 10^6 objects on the same backbone and request rate moves
// it onto the placement scan and measurement tick.
const SimWorkload kSimWorkloads[] = {
    {"uunet-zipf", "uunet", 10'000, 1200.0, 600.0},
    {"ts10k-zipf", "ts:n=10000,seed=7", 100'000, 600.0, 300.0},
    {"uunet-zipf-1m", "uunet", 1'000'000, 600.0, 600.0},
};

constexpr int kMaxRedirects = 3;  // HostingSimulation's re-route limit

// One request-path event in kTimeEvery is timed (every call in it gets a
// span); the rest are only counted. Timing every call would make the
// traced run several times slower than the untraced one and blur the
// ledger. Periodic events (ticks, placement rounds) are always timed.
constexpr std::uint64_t kTimeEvery = 32;

/// Row ids of the replay's spans.
struct Rows {
  int push, pop, admit;
  int choose, record, tick, round, create, census;
  int control, transfer, path, linkstats, hoprow;
  int sample;
  explicit Rows(Ledger& l)
      : push(l.AddRow("sim.queue_push")),
        pop(l.AddRow("sim.queue_pop")),
        admit(l.AddRow("sim.server_admit")),
        choose(l.AddRow("core.redirector_choose")),
        record(l.AddRow("core.host_record")),
        tick(l.AddRow("core.measurement_tick")),
        round(l.AddRow("core.placement_round")),
        create(l.AddRow("core.create_obj")),
        census(l.AddRow("core.replica_census")),
        control(l.AddRow("net.control")),
        transfer(l.AddRow("net.transfer")),
        path(l.AddRow("net.append_path")),
        linkstats(l.AddRow("net.linkstats_record")),
        hoprow(l.AddRow("net.hop_row")),
        sample(l.AddRow("workload.fill_batch")) {}
};

class Replay;

/// The placement round's view of the world, forwarding to the Cluster's
/// public surface. It exists so the replay can count Fig. 3-5 attempts
/// (ReduceAffinity resolves the redirector once per attempt) and time the
/// Fig. 4 CreateObj handling as a child span of the round.
class CountingContext final : public radar::core::PlacementContext {
 public:
  explicit CountingContext(Replay* replay) : replay_(replay) {}
  radar::core::CreateObjResponse CreateObjRpc(
      NodeId from, NodeId to, radar::core::CreateObjMethod method, ObjectId x,
      double unit_load) override;
  radar::core::Redirector& RedirectorFor(ObjectId x) override;
  std::int32_t Distance(NodeId from, NodeId to) const override;
  NodeId FindOffloadRecipient(NodeId self) override;
  double ReportedLoad(NodeId host) const override;
  double HostWeight(NodeId host) const override;

 private:
  Replay* replay_;
};

/// Counts redirector grants of drop requests.
class DropListener final : public radar::core::Redirector::ChangeListener {
 public:
  void OnReplicaAdded(ObjectId, NodeId) override {}
  void OnReplicaRemoved(ObjectId, NodeId) override { ++removed; }
  std::int64_t removed = 0;
};

class Replay {
 public:
  Replay(const radar::driver::SimConfig& config,
         const radar::net::Topology& topology, Ledger& ledger)
      : config_(config),
        topology_(topology),
        ledger_(ledger),
        rows_(ledger),
        link_stats_(topology.graph()),
        context_(this) {
    const std::int64_t t0 = NowNs();
    net_ = std::make_unique<radar::net::NetModel>(topology_, config_.object_bytes,
                                                  config_.oracle);
    counts_.net_build_s = static_cast<double>(NowNs() - t0) * 1e-9;
    distance_ = std::make_unique<radar::driver::RoutingDistance>(*net_);
    const std::vector<NodeId> central = net_->NodesByCentrality();
    const std::vector<NodeId> homes(
        central.begin(), central.begin() + config_.num_redirectors);
    net_->AddRowSources(homes);
    cluster_ = std::make_unique<radar::core::Cluster>(
        topology_.num_nodes(), *distance_, config_.protocol, homes);
    radar::Rng root(config_.seed);
    for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
      rngs_.push_back(root.Fork(static_cast<std::uint64_t>(n)));
    }
    for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
      cluster_->host(n).set_weight(1.0);
      servers_.emplace_back(config_.server_capacity);
    }
    for (int i = 0; i < cluster_->redirectors().size(); ++i) {
      cluster_->redirectors().At(i).set_change_listener(&drops_);
    }
  }

  ReplayCounts Run() {
    workload_ = std::make_unique<radar::workload::ZipfWorkload>(
        config_.num_objects);
    const std::int64_t place0 = NowNs();
    for (ObjectId x = 0; x < config_.num_objects; ++x) {
      cluster_->PlaceInitialObject(x, x % topology_.num_nodes());
    }
    counts_.place_initial_s = static_cast<double>(NowNs() - place0) * 1e-9;
    ScheduleArrivals();
    ScheduleMeasurement();
    SchedulePlacement();
    ScheduleCensus();

    const std::int64_t t0 = NowNs();
    RunUntil(config_.duration);
    counts_.run_ns = NowNs() - t0;

    for (int i = 0; i < cluster_->redirectors().size(); ++i) {
      counts_.distributed +=
          cluster_->redirectors().At(i).requests_distributed();
    }
    counts_.drops_granted = drops_.removed;
    for (ObjectId x = 0; x < config_.num_objects; ++x) {
      if (cluster_->redirectors().For(x).ReplicaCount(x) < 1) {
        ++counts_.objects_without_replica;
      }
    }
    return counts_;
  }

 private:
  friend class CountingContext;

  struct TaskBase {
    virtual ~TaskBase() = default;
  };

  struct Arrivals {
    static constexpr std::uint32_t kBatch = 256;  // HostingSimulation's
    Replay* owner = nullptr;
    NodeId gateway = kInvalidNode;
    SimTime period = 0;
    std::uint32_t stream = 0;
    std::uint32_t next = 0;
    std::uint32_t filled = 0;
    ObjectId objects[kBatch];
  };

  template <class F>
  void Push(SimTime when, F&& fn) {
    Scope s(ledger_, rows_.push);
    queue_.Push(when, std::forward<F>(fn));
  }

  /// Simulator::SchedulePeriodic: the next firing is pushed after the body.
  template <class F>
  void Periodic(SimTime first_at, SimTime period, F fn) {
    struct Task final : TaskBase {
      Task(Replay* r, SimTime p, F f) : replay(r), period(p), fn(std::move(f)) {}
      Replay* replay;
      SimTime period;
      F fn;
      void Fire(SimTime at) {
        // Ticks and placement rounds are rare and heavy: always timed.
        replay->ledger_.SetTiming(true);
        fn(at);
        const SimTime next = at + period;
        replay->Push(next, [this, next] { Fire(next); });
      }
    };
    auto task = std::make_unique<Task>(this, period, std::move(fn));
    Task* raw = task.get();
    tasks_.push_back(std::move(task));
    Push(first_at, [raw, first_at] { raw->Fire(first_at); });
  }

  void ScheduleArrivals() {
    const double rate = config_.node_request_rate;
    for (const NodeId g : topology_.GatewayNodes()) {
      const auto period = static_cast<SimTime>(
          static_cast<double>(radar::kMicrosPerSecond) / rate);
      const SimTime phase = period * static_cast<SimTime>(g) /
                            static_cast<SimTime>(topology_.num_nodes());
      arrivals_.push_back(std::make_unique<Arrivals>());
      Arrivals* a = arrivals_.back().get();
      a->owner = this;
      a->gateway = g;
      a->period = period;
      a->stream = queue_.AddStream([a] { a->owner->Fire(*a); });
      Scope s(ledger_, rows_.push);
      queue_.ArmStream(a->stream, phase);
    }
  }

  void ScheduleMeasurement() {
    const SimTime interval = config_.protocol.measurement_interval;
    Periodic(interval, interval, [this](SimTime t) {
      for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
        counts_.objects_ticked +=
            static_cast<std::int64_t>(cluster_->host(n).NumObjects());
        Scope s(ledger_, rows_.tick);
        cluster_->TickMeasurement(n, t);
      }
    });
  }

  void SchedulePlacement() {
    const SimTime interval = config_.protocol.placement_interval;
    const NodeId nodes = topology_.num_nodes();
    for (NodeId n = 0; n < nodes; ++n) {
      const SimTime offset = interval * static_cast<SimTime>(n + 1) /
                             static_cast<SimTime>(nodes + 1);
      Periodic(interval + offset, interval, [this, n](SimTime t) {
        radar::core::HostAgent& agent = cluster_->host(n);
        counts_.objects_scanned += static_cast<std::int64_t>(agent.NumObjects());
        round_now_ = t;
        radar::core::PlacementStats stats;
        {
          Scope s(ledger_, rows_.round);
          stats = agent.RunPlacement(context_, t);
        }
        counts_.relocations += stats.geo_migrations + stats.geo_replications +
                               stats.offload_migrations +
                               stats.offload_replications;
        counts_.affinity_drops += stats.affinity_drops;
      });
    }
  }

  void ScheduleCensus() {
    const SimTime interval = config_.protocol.placement_interval;
    Periodic(interval, interval, [this](SimTime) {
      Scope s(ledger_, rows_.census);
      census_sink_ += cluster_->AverageReplicasPerObject();
    });
  }

  void RunUntil(SimTime until) {
    SimTime when = 0;
    std::uint32_t slot = 0;
    for (;;) {
      ledger_.SetTiming(counts_.events % kTimeEvery == 0);
      bool more;
      {
        Scope s(ledger_, rows_.pop);
        more = queue_.PopEntryIfNotAfter(until, &when, &slot);
      }
      if (!more) break;
      now_ = when;
      queue_.InvokeAndReleaseSlot(slot);
      ++counts_.events;
    }
    ledger_.SetTiming(false);
  }

  // RADAR_HOT mirror of HostingSimulation::GatewayArrivals::Fire and the
  // request lifecycle (dispatch -> arrive -> complete).
  void Fire(Arrivals& a) {
    const SimTime at = now_;
    if (a.next == a.filled) {
      Scope s(ledger_, rows_.sample);
      workload_->FillBatch(a.gateway, at,
                           rngs_[static_cast<std::size_t>(a.gateway)],
                           a.objects, Arrivals::kBatch);
      a.next = 0;
      a.filled = Arrivals::kBatch;
    }
    const ObjectId x = a.objects[a.next++];
    if (a.next < a.filled) {
      const ObjectId nx = a.objects[a.next];
      cluster_->redirectors().For(nx).Prefetch(nx);
    }
    ledger_.SetRequest(counts_.generated++);
    Dispatch(x, a.gateway, at);
    Scope s(ledger_, rows_.push);
    queue_.ArmStream(a.stream, at + a.period);
  }

  void Dispatch(ObjectId x, NodeId gateway, SimTime now) {
    radar::core::Redirector& shard = cluster_->redirectors().For(x);
    const std::int32_t* row;
    {
      Scope s(ledger_, rows_.hoprow);
      row = net_->HopRow(gateway);
    }
    NodeId host;
    {
      Scope s(ledger_, rows_.choose);
      host = shard.ChooseReplica(x, gateway, row);
    }
    if (host == kInvalidNode) {
      ++counts_.failed;
      return;
    }
    const NodeId redirector = shard.home_node();
    SimTime control;
    {
      Scope s(ledger_, rows_.control);
      control = net_->ControlRow(gateway)[redirector];
    }
    {
      Scope s(ledger_, rows_.control);
      control += net_->ControlRow(redirector)[host];
    }
    ++counts_.in_flight;
    Push(now_ + control, [this, x, gateway, host, now] {
      Arrive(x, gateway, host, now, 0);
    });
  }

  void Arrive(ObjectId x, NodeId gateway, NodeId host, SimTime t0,
              int redirects) {
    if (!cluster_->host(host).HasObject(x)) {
      if (redirects >= kMaxRedirects) {
        ++counts_.dropped;
        --counts_.in_flight;
        return;
      }
      const NodeId redirector = cluster_->redirectors().For(x).home_node();
      NodeId retry;
      {
        Scope s(ledger_, rows_.choose);
        retry = cluster_->RouteRequest(x, gateway);
      }
      if (retry == kInvalidNode) {
        ++counts_.failed;
        --counts_.in_flight;
        return;
      }
      SimTime control;
      {
        Scope s(ledger_, rows_.control);
        control = net_->Control(host, redirector);
      }
      {
        Scope s(ledger_, rows_.control);
        control += net_->Control(redirector, retry);
      }
      Push(now_ + control, [this, x, gateway, retry, t0, redirects] {
        Arrive(x, gateway, retry, t0, redirects + 1);
      });
      return;
    }
    SimTime completion;
    {
      Scope s(ledger_, rows_.admit);
      completion = servers_[static_cast<std::size_t>(host)].Admit(now_);
    }
    Push(completion, [this, x, gateway, host, t0] {
      Complete(x, gateway, host, t0);
    });
  }

  void Complete(ObjectId x, NodeId gateway, NodeId host, SimTime t0) {
    path_.clear();
    {
      Scope s(ledger_, rows_.path);
      net_->AppendPath(host, gateway, &path_);
    }
    bool hosted;
    {
      Scope s(ledger_, rows_.record);
      hosted = cluster_->host(host).RecordServicedIfHosted(x, path_);
    }
    if (!hosted) ++counts_.record_unhosted;
    const auto hops = static_cast<std::int64_t>(path_.size() - 1);
    counts_.path_hops += hops;
    {
      Scope s(ledger_, rows_.linkstats);
      link_stats_.RecordPath(path_, config_.object_bytes);
    }
    counts_.linkstats_hops += hops;
    SimTime response;
    {
      Scope s(ledger_, rows_.transfer);
      response = net_->Transfer(host, gateway);
    }
    latency_sink_ += radar::SimToSeconds(now_ - t0 + response);
    ++counts_.serviced;
    --counts_.in_flight;
  }
  // RADAR_HOT_END

  const radar::driver::SimConfig& config_;
  const radar::net::Topology& topology_;
  Ledger& ledger_;
  Rows rows_;
  std::unique_ptr<radar::net::NetModel> net_;
  std::unique_ptr<radar::driver::RoutingDistance> distance_;
  std::unique_ptr<radar::core::Cluster> cluster_;
  std::unique_ptr<radar::workload::Workload> workload_;
  std::vector<radar::Rng> rngs_;
  std::vector<radar::sim::FcfsServer> servers_;
  radar::net::LinkStats link_stats_;
  radar::sim::EventQueue queue_;
  std::vector<std::unique_ptr<Arrivals>> arrivals_;
  std::vector<std::unique_ptr<TaskBase>> tasks_;
  std::vector<NodeId> path_;
  CountingContext context_;
  DropListener drops_;
  ReplayCounts counts_;
  SimTime now_ = 0;
  SimTime round_now_ = 0;  ///< time of the running placement round
  // Stand-ins for the report's latency and replica-census bookkeeping, so
  // the replay computes what the real engine computes.
  double latency_sink_ = 0;
  double census_sink_ = 0;
};

radar::core::CreateObjResponse CountingContext::CreateObjRpc(
    NodeId from, NodeId to, radar::core::CreateObjMethod method, ObjectId x,
    double unit_load) {
  // Cluster::CreateObjRpc for a fault-free run without replica caps: the
  // recipient's Fig. 4 verdict, then the redirector notice and the copy
  // accounting on acceptance.
  RADAR_CHECK_NE(from, to);
  radar::core::Cluster& cluster = *replay_->cluster_;
  ++replay_->counts_.create_attempts;
  radar::core::CreateObjResponse resp;
  {
    Scope s(replay_->ledger_, replay_->rows_.create);
    resp = cluster.host(to).HandleCreateObj(method, x, unit_load,
                                            replay_->round_now_);
  }
  if (resp.accepted) {
    ++replay_->counts_.create_accepted;
    cluster.redirectors().For(x).OnReplicaCreated(x, to);
    if (resp.created_new_copy) {
      // HostingSimulation's transfer hook: the copy's path is charged to
      // the links.
      replay_->path_.clear();
      {
        Scope s(replay_->ledger_, replay_->rows_.path);
        replay_->net_->AppendPath(from, to, &replay_->path_);
      }
      {
        Scope s(replay_->ledger_, replay_->rows_.linkstats);
        replay_->link_stats_.RecordPath(replay_->path_,
                                        replay_->config_.object_bytes);
      }
      replay_->counts_.linkstats_hops +=
          static_cast<std::int64_t>(replay_->path_.size() - 1);
      ++replay_->counts_.object_copies;
    }
  }
  return resp;
}

radar::core::Redirector& CountingContext::RedirectorFor(ObjectId x) {
  ++replay_->counts_.reduce_attempts;
  return replay_->cluster_->RedirectorFor(x);
}

std::int32_t CountingContext::Distance(NodeId from, NodeId to) const {
  return replay_->cluster_->Distance(from, to);
}

NodeId CountingContext::FindOffloadRecipient(NodeId self) {
  return replay_->cluster_->FindOffloadRecipient(self);
}

double CountingContext::ReportedLoad(NodeId host) const {
  return replay_->cluster_->ReportedLoad(host);
}

double CountingContext::HostWeight(NodeId host) const {
  return replay_->cluster_->HostWeight(host);
}

}  // namespace

const SimWorkload* FindSimWorkload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

radar::net::Topology MakeTopology(const SimWorkload& w) {
  if (w.topology == "uunet") return radar::net::MakeUunetBackbone();
  return radar::net::GenerateTopology(w.topology);
}

radar::driver::SimConfig MakeConfig(const SimWorkload& w, std::uint64_t seed,
                                    double sim_seconds) {
  radar::driver::SimConfig c;  // Table 1 defaults: Zipf, RaDaR policies
  c.num_objects = w.objects;
  c.seed = seed;
  c.duration = radar::SecondsToSim(sim_seconds);
  return c;
}

ReplayCounts RunTracedReplay(const radar::driver::SimConfig& config,
                             const radar::net::Topology& topology,
                             Ledger& ledger) {
  Replay replay(config, topology, ledger);
  return replay.Run();
}

}  // namespace radarbench
