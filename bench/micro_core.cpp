// Microbenchmarks (google-benchmark) for the hot paths of the library:
// request distribution, routing-table construction, workload sampling,
// path-latency lookup, the event queue, host-side access counting, a
// DispatchRequest-loop macro case over the full driver, and the real-mode
// layers under each request: the wire encoder and decoder, the CRC-32,
// the capture's Stage/Flush and the binlog append.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "binlog/binlog.h"
#include "common/rng.h"
#include "common/slab_map.h"
#include "common/zipf.h"
#include "core/cluster.h"
#include "core/redirector.h"
#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "net/path_latency.h"
#include "net/routing.h"
#include "net/uunet.h"
#include "sim/event_queue.h"
#include "sim/transfer.h"
#include "wire/codec.h"
#include "workload/workload.h"

namespace {

using namespace radar;

core::MatrixDistanceOracle MakeOracle(std::int32_t n) {
  core::MatrixDistanceOracle oracle(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      oracle.Set(a, b, (b - a) % 7 + 1);
    }
  }
  return oracle;
}

void BM_ChooseReplica(benchmark::State& state) {
  const auto replicas = static_cast<int>(state.range(0));
  core::MatrixDistanceOracle oracle = MakeOracle(53);
  core::Redirector redirector(oracle, 2.0);
  redirector.RegisterObject(1, 0);
  for (NodeId host = 1; host < replicas; ++host) {
    redirector.OnReplicaCreated(1, host);
  }
  Rng rng(1);
  for (auto _ : state) {
    const auto gateway = static_cast<NodeId>(rng.NextBounded(53));
    benchmark::DoNotOptimize(redirector.ChooseReplica(1, gateway));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseReplica)->Arg(1)->Arg(2)->Arg(4)->Arg(16)->Arg(53);

void BM_RoutingTableBuild(benchmark::State& state) {
  const net::Topology topology = net::MakeUunetBackbone();
  for (auto _ : state) {
    net::RoutingTable routing(topology.graph());
    benchmark::DoNotOptimize(routing.HopDistance(0, 52));
  }
}
BENCHMARK(BM_RoutingTableBuild);

void BM_ReedsZipfSample(benchmark::State& state) {
  ReedsZipf zipf(10000);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReedsZipfSample);

void BM_ExactZipfSample(benchmark::State& state) {
  ExactZipf zipf(10000);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactZipfSample);

// The per-request latency computation as it existed before the
// precomputed matrices: walk the canonical path and scan each hop's
// adjacency list for the connecting link. Kept as the baseline half of a
// before/after pair with BM_PathLatencyMatrix.
SimTime WalkTransferLatency(const net::RoutingTable& routing,
                            const net::Graph& graph, NodeId a, NodeId b,
                            std::int64_t object_bytes) {
  const std::vector<NodeId>& path = routing.Path(a, b);
  SimTime total = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    for (const net::Edge& e : graph.Neighbors(path[i - 1])) {
      if (e.to != path[i]) continue;
      total += e.delay + sim::SerializationTime(object_bytes, e.bandwidth_bps);
      break;
    }
  }
  return total;
}

void BM_PathLatencyWalk(benchmark::State& state) {
  const net::Topology topology = net::MakeUunetBackbone();
  const net::RoutingTable routing(topology.graph());
  Rng rng(5);
  const auto n = topology.graph().num_nodes();
  for (auto _ : state) {
    const auto a = static_cast<NodeId>(rng.NextBounded(n));
    const auto b = static_cast<NodeId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(
        WalkTransferLatency(routing, topology.graph(), a, b, 100'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathLatencyWalk);

void BM_PathLatencyMatrix(benchmark::State& state) {
  const net::Topology topology = net::MakeUunetBackbone();
  const net::RoutingTable routing(topology.graph());
  const net::PathLatencyMatrix matrix(routing, topology.graph(), 100'000);
  Rng rng(5);
  const auto n = topology.graph().num_nodes();
  for (auto _ : state) {
    const auto a = static_cast<NodeId>(rng.NextBounded(n));
    const auto b = static_cast<NodeId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(matrix.Transfer(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathLatencyMatrix);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  Rng rng(3);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.Push(static_cast<SimTime>(rng.NextBounded(1'000'000)), [] {});
  }
  SimTime base = 1'000'000;
  for (auto _ : state) {
    queue.Push(base + static_cast<SimTime>(rng.NextBounded(1000)), [] {});
    benchmark::DoNotOptimize(queue.Pop());
    ++base;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_RecordServiced(benchmark::State& state) {
  core::ProtocolParams params;
  core::HostAgent agent(0, 53, &params);
  agent.AddInitialReplica(1);
  const std::vector<NodeId> path{0, 7, 13, 21, 35};
  for (auto _ : state) {
    agent.RecordServiced(1, path);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordServiced);

void BM_PlacementRound(benchmark::State& state) {
  // One host deciding placement for 200 objects with populated counters.
  const auto objects = static_cast<ObjectId>(state.range(0));
  core::MatrixDistanceOracle oracle = MakeOracle(53);
  for (auto _ : state) {
    state.PauseTiming();
    core::ProtocolParams params;
    core::Cluster cluster(53, oracle, params, {0});
    Rng rng(4);
    for (ObjectId x = 0; x < objects; ++x) {
      cluster.PlaceInitialObject(x, 0);
      std::vector<NodeId> path{0,
                               static_cast<NodeId>(1 + rng.NextBounded(52))};
      for (int i = 0; i < 20; ++i) {
        cluster.host(0).RecordServiced(x, path);
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        cluster.RunPlacement(0, SecondsToSim(100.0)));
  }
}
BENCHMARK(BM_PlacementRound)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_DispatchRequestLoop(benchmark::State& state) {
  // Macro case: the full engine (dispatch -> arrive -> complete, periodic
  // ticks included) over the UUNET + Zipf configuration, measured as
  // simulated requests per wall second. The per-item rate here should
  // track bench/throughput's large scale.
  const double kSimSeconds = 10.0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    driver::SimConfig config;
    config.duration = SecondsToSim(kSimSeconds);
    config.workload = driver::WorkloadKind::kZipf;
    driver::HostingSimulation sim(config);
    state.ResumeTiming();
    const driver::RunReport report = sim.Run();
    requests += report.total_requests;
    benchmark::DoNotOptimize(report.total_requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_DispatchRequestLoop)->Unit(benchmark::kMillisecond);

// Object-table record: the shape HostAgent/Redirector keep per object.
struct LookupRecord {
  int aff = 1;
  std::int64_t rcnt = 0;
};

void BM_EntryLookupMap(benchmark::State& state) {
  // The pre-overhaul layout: per-object records behind a hash map. Every
  // probe hashes the id and chases at least one node pointer.
  constexpr ObjectId kObjects = 10'000;
  std::unordered_map<ObjectId, LookupRecord> table;
  table.reserve(kObjects);
  for (ObjectId x = 0; x < kObjects; ++x) table.emplace(x, LookupRecord{});
  Rng rng(11);
  for (auto _ : state) {
    const auto x = static_cast<ObjectId>(rng.NextBounded(kObjects));
    auto it = table.find(x);
    ++it->second.rcnt;
    benchmark::DoNotOptimize(it->second.rcnt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryLookupMap);

void BM_EntryLookupSlab(benchmark::State& state) {
  // The slab layout (common/slab_map.h): dense id -> handle index in
  // front of chunked storage — two predictable loads, no hashing.
  constexpr ObjectId kObjects = 10'000;
  SlabMap<LookupRecord> table;
  for (ObjectId x = 0; x < kObjects; ++x) table.At(table.Insert(x)) = {};
  Rng rng(11);
  for (auto _ : state) {
    const auto x = static_cast<ObjectId>(rng.NextBounded(kObjects));
    LookupRecord* rec = table.Find(x);
    ++rec->rcnt;
    benchmark::DoNotOptimize(rec->rcnt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryLookupSlab);

void BM_BatchedDispatch(benchmark::State& state) {
  // The batched-vs-per-event arrival pair. Arg 1 runs the stock Zipf
  // workload, which is time-invariant, so deterministic arrivals take the
  // batched GatewayArrivals path. Arg 0 wraps the same Zipf in a
  // DemandShiftWorkload whose shift never fires: draw-for-draw identical
  // requests, but time_invariant() is false, forcing the per-event
  // SchedulePeriodic path. The items/sec gap is the batching win.
  const bool batched = state.range(0) == 1;
  const double kSimSeconds = 10.0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    driver::SimConfig config;
    config.duration = SecondsToSim(kSimSeconds);
    config.workload = driver::WorkloadKind::kZipf;
    driver::HostingSimulation sim(config);
    if (!batched) {
      sim.SetWorkload(std::make_unique<workload::DemandShiftWorkload>(
          std::make_unique<workload::ZipfWorkload>(config.num_objects),
          std::make_unique<workload::ZipfWorkload>(config.num_objects),
          SecondsToSim(kSimSeconds * 1000)));
    }
    state.ResumeTiming();
    const driver::RunReport report = sim.Run();
    requests += report.total_requests;
    benchmark::DoNotOptimize(report.total_requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_BatchedDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The wire encoder with a fresh vector per frame (the spool path) and
// appending into a reused buffer (the connection's output buffer).
void BM_WireEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t seq = 1;
  for (auto _ : state) {
    const auto object = static_cast<ObjectId>(rng.NextBounded(1000));
    benchmark::DoNotOptimize(wire::Encode(seq++, wire::Request{object, 7}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncode);

void BM_WireEncodeAppend(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint8_t> buf;
  std::uint64_t seq = 1;
  for (auto _ : state) {
    const auto object = static_cast<ObjectId>(rng.NextBounded(1000));
    buf.clear();
    wire::EncodeAppend(buf, seq++, wire::Request{object, 7});
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeAppend);

// The wire decoder over one Request and one Ack frame: the transport's
// per-frame decode.
void BM_WireDecode(benchmark::State& state, const wire::Message& msg) {
  const std::vector<std::uint8_t> frame = wire::Encode(12345, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.data());
    benchmark::DoNotOptimize(wire::DecodeFrame(frame.data(), frame.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WireDecode, Request, wire::Request{17, 7});
BENCHMARK_CAPTURE(BM_WireDecode, Ack, wire::Ack{99, true, false});

// CRC-32 over Arg bytes: 28 is one request frame (a capture record's
// payload), 4096 the bulk rate.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(binlog::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(28)->Arg(4096);

// The capture as the redirector writes it: one Stage per received request
// frame, one Flush per 256 records (a read pass's worth).
void BM_CaptureStage(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("radar_micro_capture_" + std::to_string(::getpid()) + ".bin"))
          .string();
  binlog::BinlogWriter writer;
  std::string error;
  if (!writer.Open(path, binlog::FsyncPolicy::kNone, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const std::vector<std::uint8_t> frame =
      wire::Encode(1, wire::Request{17, 7});
  std::int64_t records = 0;
  for (auto _ : state) {
    writer.Stage(records, 4, 0, frame.data(), frame.size());
    if (++records % 256 == 0) {
      benchmark::DoNotOptimize(writer.Flush());
      if (records % (1 << 16) == 0) {
        state.PauseTiming();  // keep the file small
        writer.Reset();
        state.ResumeTiming();
      }
    }
  }
  writer.Close();
  std::remove(path.c_str());
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_CaptureStage);

// Capture appends of one request frame each (~60 B records) into a
// page-cache file, Arg records per Flush: /1 is the per-record write of
// the spool and WAL, /64 a group-committed read pass.
void BM_BinlogAppend(benchmark::State& state) {
  const auto per_flush = static_cast<int>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("radar_micro_binlog_" + std::to_string(::getpid()) + ".bin"))
          .string();
  binlog::BinlogWriter writer;
  std::string error;
  if (!writer.Open(path, binlog::FsyncPolicy::kNone, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  Rng rng(1);
  const std::vector<std::uint8_t> frame = wire::Encode(
      1, wire::Request{static_cast<ObjectId>(rng.NextBounded(1000)), 7});
  std::int64_t records = 0;
  for (auto _ : state) {
    for (int i = 0; i < per_flush; ++i) {
      writer.Stage(records + i, 4, 0, frame.data(), frame.size());
    }
    benchmark::DoNotOptimize(writer.Flush());
    records += per_flush;
    if (records % (1 << 16) < per_flush) {
      state.PauseTiming();  // keep the file small
      writer.Reset();
      state.ResumeTiming();
    }
  }
  writer.Close();
  std::remove(path.c_str());
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_BinlogAppend)->Arg(1)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
