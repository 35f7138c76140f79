// The hosting-server brain of real-system mode (DESIGN.md §16).
//
// A HostNode wraps one core::HostAgent — the *same* class every simulated
// host runs — behind the Transport seam, so Fig. 4 admission, the
// Sec. 2.1 load estimates, and the Theorem 1-4 bounds are shared verbatim
// between simulator and daemon. What the real-mode brain adds around the
// agent:
//
//   - request servicing: a redirected client fetch (kRequest) feeds
//     RecordServicedIfHosted and is answered with an Ack,
//   - Fig. 4 over the wire: incoming kReplicate/kMigrate CreateObj frames
//     go through HandleCreateObj; on acceptance the *recipient* notifies
//     the redirector of its new copy (the paper's "notify x's
//     redirector", which keeps the registry a subset of physical copies),
//   - asynchronous source-side relocation: an accepted migrate triggers a
//     drop-arbitration round-trip with the redirector; only a granted
//     drop erases the local copy (refused → both copies live on — a
//     relocation can duplicate an object, never lose one),
//   - a simplified overload loop (v1): when the admission load passes the
//     high watermark, shed the hottest object to the least-loaded peer
//     known from relayed placement stats (unit rate <= m → migrate, else
//     replicate, mirroring Fig. 5's branch). The full Fig. 3 geo-
//     placement loop remains simulator-only,
//   - a state WAL: every replica-set change is appended to a binlog
//     ('C' object affinity / 'D' object), so a SIGKILL'd daemon rebuilds
//     its replica set on restart and re-announces it (kAnnounce) — the
//     real-mode equivalent of ResetAfterCrash's "disk survives".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binlog/binlog.h"
#include "core/host_agent.h"
#include "core/params.h"
#include "transport/node_config.h"
#include "transport/transport.h"

namespace radar::transport {

/// WAL op bytes (record payload: {op u8, object i32 LE, value i32 LE}).
inline constexpr std::uint8_t kWalCreate = 'C';  ///< value = affinity after
inline constexpr std::uint8_t kWalDrop = 'D';    ///< value unused (0)
inline constexpr std::size_t kWalPayloadSize = 9;

class HostNode final : public Handler {
 public:
  struct Options {
    /// Total object population; this node preloads objects whose
    /// InitialHome is self (first boot only — a non-empty WAL wins).
    std::int32_t num_objects = 0;
    /// Replica-set WAL path; empty disables persistence (tests).
    std::string wal_path;
    binlog::FsyncPolicy fsync = binlog::FsyncPolicy::kNone;
    core::ProtocolParams params;
  };

  struct Counters {
    std::uint64_t requests_serviced = 0;
    std::uint64_t requests_unhosted = 0;
    std::uint64_t create_accepted = 0;
    std::uint64_t create_refused = 0;
    std::uint64_t migrates_out = 0;
    std::uint64_t replicates_out = 0;
    std::uint64_t drops_granted = 0;
    std::uint64_t drops_refused = 0;
    std::uint64_t stats_seen = 0;
    std::uint64_t wal_errors = 0;
  };

  /// `config` and `transport` must outlive the node.
  HostNode(const NodeConfig& config, NodeId self, Transport* transport,
           Options options);

  /// Replays the WAL (or seeds initial replicas into a fresh one) and
  /// announces the replica set if the redirector is already reachable.
  /// False + *error on WAL I/O failure.
  bool Init(std::string* error);

  // Handler:
  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override;
  void OnPeerUp(NodeId peer) override;
  void OnPeerDown(NodeId peer) override;

  /// Drives the measurement / stat-report / overload timers; call often
  /// (every event-loop iteration) — it no-ops until an interval elapses.
  void OnTick();

  bool shutdown_requested() const { return shutdown_; }
  const core::HostAgent& agent() const { return agent_; }
  const Counters& counters() const { return counters_; }

 private:
  struct PeerStat {
    double load = 0.0;
    double weight = 1.0;
  };
  /// What an outstanding frame (awaiting its Ack) was for.
  enum class PendingKind : std::uint8_t {
    kCreateMigrate,    ///< CreateObj(MIGRATE) sent to a peer host
    kCreateReplicate,  ///< CreateObj(REPLICATE) sent to a peer host
    kDropRequest,      ///< drop arbitration sent to the redirector
  };
  struct Pending {
    PendingKind kind;
    ObjectId object;
    NodeId peer;
  };

  void HandleRequest(NodeId from, std::uint64_t seq, const wire::Request& req);
  void HandleCreate(NodeId from, std::uint64_t seq, core::CreateObjMethod m,
                    ObjectId object, double unit_load);
  void HandleAck(NodeId from, const wire::Ack& ack);
  void AnnounceReplicas();
  /// One overload round: shed at most one object (the per-tick pacing of
  /// the v1 loop; the next placement interval sheds the next one).
  void MaybeOffload();
  bool WalAppend(std::uint8_t op, ObjectId object, std::int32_t value);

  const NodeConfig& config_;
  Transport* transport_;
  Options options_;
  core::HostAgent agent_;
  binlog::BinlogWriter wal_;
  std::map<NodeId, PeerStat> peer_stats_;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<NodeId> path_;  ///< HandleRequest's preference path
  Counters counters_;
  std::int64_t next_measure_at_ = -1;
  std::int64_t next_placement_at_ = -1;
  bool shutdown_ = false;
};

}  // namespace radar::transport
