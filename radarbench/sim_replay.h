// Traced replay of a simulator workload. It drives the library's public
// functions in the same order HostingSimulation's serial engine does —
// Workload draws, the redirector's Fig. 2 choice, NetModel lookups,
// FcfsServer admission, HostAgent counting, LinkStats accounting, the
// measurement tick and placement rounds at their scheduled times, and
// EventQueue push/pop — with a span around every call. Because the event
// order is identical, the replay must reproduce the untraced run's request
// count and redirector decision count exactly; sim_main.cpp checks that.
#pragma once

#include <cstdint>
#include <string>

#include "driver/config.h"
#include "ledger.h"
#include "net/topology.h"

namespace radarbench {

struct SimWorkload {
  std::string name;
  std::string topology;  ///< "uunet" or a net::topology_gen spec
  radar::ObjectId objects = 0;
  double sim_seconds = 0;        ///< simulated duration of one untraced rep
  double trace_sim_seconds = 0;  ///< simulated duration in the traced run
};

/// The three simulator workloads; nullptr for an unknown name.
const SimWorkload* FindSimWorkload(const std::string& name);

radar::net::Topology MakeTopology(const SimWorkload& w);
radar::driver::SimConfig MakeConfig(const SimWorkload& w, std::uint64_t seed,
                                    double sim_seconds);

struct ReplayCounts {
  std::int64_t generated = 0;  ///< arrivals fired
  std::int64_t in_flight = 0;  ///< dispatched, not yet completed at the end
  std::int64_t serviced = 0;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  std::int64_t distributed = 0;  ///< Redirector::requests_distributed() sum
  std::int64_t relocations = 0;  ///< geo/offload migrations + replications
  std::int64_t affinity_drops = 0;
  std::int64_t object_copies = 0;
  std::uint64_t events = 0;
  std::int64_t run_ns = 0;        ///< wall time of the traced run phase
  double net_build_s = 0;         ///< NetModel construction
  double place_initial_s = 0;     ///< initial replica installation
  std::int64_t path_hops = 0;     ///< response-path hops, all serviced
  std::int64_t linkstats_hops = 0;
  std::int64_t record_unhosted = 0;
  std::int64_t objects_scanned = 0;  ///< replicas held at placement rounds
  std::int64_t objects_ticked = 0;   ///< replicas held at measurement ticks
  std::int64_t reduce_attempts = 0;  ///< ReduceAffinity (RedirectorFor) calls
  std::int64_t drops_granted = 0;
  std::int64_t create_attempts = 0;
  std::int64_t create_accepted = 0;
  std::int64_t objects_without_replica = 0;  ///< at the end
};

/// Runs the traced replay of `config` on `topology`, recording spans into
/// `ledger` (rows are added by the replay).
ReplayCounts RunTracedReplay(const radar::driver::SimConfig& config,
                             const radar::net::Topology& topology,
                             Ledger& ledger);

}  // namespace radarbench
