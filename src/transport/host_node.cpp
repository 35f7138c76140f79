#include "transport/host_node.h"

#include <array>
#include <utility>
#include <vector>

#include "common/check.h"

namespace radar::transport {
namespace {

void PutI32(std::uint8_t* p, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>((u >> (8 * i)) & 0xff);
  }
}

std::int32_t GetI32(const std::uint8_t* p) {
  std::uint32_t u = 0;
  for (int i = 0; i < 4; ++i) {
    u |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return static_cast<std::int32_t>(u);
}

}  // namespace

HostNode::HostNode(const NodeConfig& config, NodeId self, Transport* transport,
                   Options options)
    : config_(config),
      transport_(transport),
      options_(std::move(options)),
      agent_(self, config.num_nodes(), &options_.params) {
  RADAR_CHECK_EQ(transport->self(), self);
  RADAR_CHECK(config.At(self).role == NodeRole::kHost);
  agent_.set_weight(config.At(self).weight);
}

bool HostNode::Init(std::string* error) {
  // Rebuild the replica set: WAL if it has history, initial placement
  // otherwise. The WAL is compacted on boot — rebuilt state is rewritten
  // as one 'C' record per live replica — which both bounds its growth
  // across restarts and heals any torn tail left by a SIGKILL.
  std::map<ObjectId, std::int32_t> replicas;
  bool fresh = true;
  if (!options_.wal_path.empty()) {
    std::string read_error;
    if (const auto read = binlog::ReadBinlog(options_.wal_path, &read_error)) {
      fresh = read->records.empty();
      for (const binlog::Record& rec : read->records) {
        if (rec.payload.size() != kWalPayloadSize) continue;
        const std::uint8_t op = rec.payload[0];
        const ObjectId x = GetI32(rec.payload.data() + 1);
        const std::int32_t value = GetI32(rec.payload.data() + 5);
        if (op == kWalCreate && x >= 0 && value >= 1) {
          replicas[x] = value;
        } else if (op == kWalDrop) {
          replicas.erase(x);
        }
      }
    }
  }
  if (fresh) {
    for (ObjectId x = 0; x < options_.num_objects; ++x) {
      if (config_.InitialHome(x) == agent_.self()) replicas[x] = 1;
    }
  }
  if (!options_.wal_path.empty()) {
    if (!wal_.Open(options_.wal_path, options_.fsync, error)) return false;
    if (!wal_.Reset()) {
      if (error != nullptr) *error = options_.wal_path + ": truncate failed";
      return false;
    }
  }
  for (const auto& [x, affinity] : replicas) {
    agent_.AddInitialReplica(x, affinity);
    if (!WalAppend(kWalCreate, x, affinity)) {
      if (error != nullptr) *error = options_.wal_path + ": append failed";
      return false;
    }
  }
  if (transport_->IsPeerUp(config_.redirector())) AnnounceReplicas();
  return true;
}

bool HostNode::WalAppend(std::uint8_t op, ObjectId object, std::int32_t value) {
  if (!wal_.is_open()) return true;
  std::array<std::uint8_t, kWalPayloadSize> payload;
  payload[0] = op;
  PutI32(payload.data() + 1, object);
  PutI32(payload.data() + 5, value);
  if (!wal_.Append(transport_->Now(), agent_.self(), agent_.self(),
                   payload.data(), payload.size())) {
    ++counters_.wal_errors;
    return false;
  }
  return true;
}

void HostNode::AnnounceReplicas() {
  for (const ObjectId x : agent_.Objects()) {
    transport_->Send(config_.redirector(),
                     wire::Announce{x, agent_.self(), agent_.Affinity(x)});
  }
}

void HostNode::OnFrame(NodeId from, const wire::DecodedFrame& frame) {
  switch (wire::TypeOf(frame.msg)) {
    case wire::MsgType::kRequest:
      HandleRequest(from, frame.seq, std::get<wire::Request>(frame.msg));
      break;
    case wire::MsgType::kReplicate: {
      const auto& m = std::get<wire::Replicate>(frame.msg);
      HandleCreate(from, frame.seq, core::CreateObjMethod::kReplicate,
                   m.object, m.unit_load);
      break;
    }
    case wire::MsgType::kMigrate: {
      const auto& m = std::get<wire::Migrate>(frame.msg);
      HandleCreate(from, frame.seq, core::CreateObjMethod::kMigrate, m.object,
                   m.unit_load);
      break;
    }
    case wire::MsgType::kAck:
      HandleAck(from, std::get<wire::Ack>(frame.msg));
      break;
    case wire::MsgType::kPlacementStat: {
      const auto& stat = std::get<wire::PlacementStat>(frame.msg);
      if (stat.host != agent_.self() && config_.Has(stat.host) &&
          stat.load >= 0.0 && stat.weight > 0.0) {
        peer_stats_[stat.host] = PeerStat{stat.load, stat.weight};
        ++counters_.stats_seen;
      }
      break;
    }
    case wire::MsgType::kShutdown:
      shutdown_ = true;
      break;
    default:
      break;  // hello/redirect/announce: not addressed to a host brain
  }
}

void HostNode::HandleRequest(NodeId from, std::uint64_t seq,
                             const wire::Request& req) {
  // Preference path of the response: this host, then the client's gateway
  // (real mode has no router database, so the path is the two endpoints).
  // The buffer is reused, so a steady-state request allocates nothing.
  path_.clear();
  path_.push_back(agent_.self());
  if (config_.Has(req.gateway) && req.gateway != agent_.self()) {
    path_.push_back(req.gateway);
  }
  const bool hosted =
      req.object >= 0 && agent_.RecordServicedIfHosted(req.object, path_);
  if (hosted) {
    ++counters_.requests_serviced;
  } else {
    ++counters_.requests_unhosted;
  }
  transport_->Send(from, wire::Ack{seq, hosted, false});
}

void HostNode::HandleCreate(NodeId from, std::uint64_t seq,
                            core::CreateObjMethod method, ObjectId object,
                            double unit_load) {
  core::CreateObjResponse resp;
  if (object >= 0 && unit_load >= 0.0) {
    resp = agent_.HandleCreateObj(method, object, unit_load,
                                  transport_->Now());
  }
  if (resp.accepted) {
    ++counters_.create_accepted;
    WalAppend(kWalCreate, object, agent_.Affinity(object));
    // Fig. 4: the recipient notifies x's redirector — after the copy
    // exists, preserving the subset invariant.
    transport_->Send(
        config_.redirector(),
        wire::Replicate{object, from, agent_.self(), unit_load});
  } else {
    ++counters_.create_refused;
  }
  transport_->Send(from, wire::Ack{seq, resp.accepted, resp.created_new_copy});
}

void HostNode::HandleAck(NodeId from, const wire::Ack& ack) {
  const auto it = pending_.find(ack.acked_seq);
  if (it == pending_.end()) return;
  const Pending pending = it->second;
  pending_.erase(it);
  if (pending.peer != from) return;
  switch (pending.kind) {
    case PendingKind::kCreateReplicate:
      if (ack.accepted && agent_.HasObject(pending.object)) {
        agent_.NoteReplicationShed(pending.object);
        ++counters_.replicates_out;
      }
      break;
    case PendingKind::kCreateMigrate:
      if (ack.accepted) {
        // The copy exists over there; ask the redirector whether this side
        // may drop its own (it refuses when that would fall below the
        // replica floor — then both copies simply live on).
        const std::uint64_t seq = transport_->Send(
            config_.redirector(),
            wire::Migrate{pending.object, agent_.self(), pending.peer, 0.0});
        pending_.emplace(seq, Pending{PendingKind::kDropRequest,
                                      pending.object, config_.redirector()});
      }
      break;
    case PendingKind::kDropRequest:
      if (ack.accepted && agent_.HasObject(pending.object)) {
        agent_.DropReplica(pending.object);
        WalAppend(kWalDrop, pending.object, 0);
        ++counters_.drops_granted;
        ++counters_.migrates_out;
      } else {
        ++counters_.drops_refused;
      }
      break;
  }
}

void HostNode::OnPeerUp(NodeId peer) {
  if (peer == config_.redirector()) AnnounceReplicas();
}

void HostNode::OnPeerDown(NodeId peer) {
  peer_stats_.erase(peer);
  // Outstanding exchanges with the dead peer resolve as refusals: for a
  // migrate that means keeping our copy — the conservative side.
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = it->second.peer == peer ? pending_.erase(it) : std::next(it);
  }
}

void HostNode::OnTick() {
  const std::int64_t now = transport_->Now();
  if (next_measure_at_ < 0) {
    next_measure_at_ = now + options_.params.measurement_interval;
    next_placement_at_ = now + options_.params.placement_interval;
    return;
  }
  if (now >= next_measure_at_) {
    agent_.OnMeasurementTick(now);
    next_measure_at_ = now + options_.params.measurement_interval;
    transport_->Send(
        config_.redirector(),
        wire::PlacementStat{
            agent_.self(), agent_.AdmissionLoad(), agent_.weight(),
            static_cast<std::uint32_t>(agent_.NumObjects())});
  }
  if (now >= next_placement_at_) {
    MaybeOffload();
    next_placement_at_ = now + options_.params.placement_interval;
  }
}

void HostNode::MaybeOffload() {
  const core::ProtocolParams& params = options_.params;
  if (agent_.AdmissionLoad() / agent_.weight() <= params.high_watermark) {
    return;
  }
  // Least-loaded reachable peer below the low watermark (normalized;
  // std::map order makes the tie-break the lowest node id).
  NodeId recipient = kInvalidNode;
  double best = params.low_watermark;
  for (const auto& [peer, stat] : peer_stats_) {
    const double normalized = stat.load / stat.weight;
    if (normalized < best && transport_->IsPeerUp(peer)) {
      best = normalized;
      recipient = peer;
    }
  }
  if (recipient == kInvalidNode) return;
  // Hottest object without an in-flight relocation (ties: lowest id).
  ObjectId victim = kInvalidObject;
  double victim_load = 0.0;
  for (const ObjectId x : agent_.Objects()) {
    bool busy = false;
    for (const auto& [seq, pending] : pending_) {
      if (pending.object == x) {
        busy = true;
        break;
      }
    }
    if (busy) continue;
    const double load = agent_.ObjectLoad(x);
    if (load > victim_load) {
      victim_load = load;
      victim = x;
    }
  }
  if (victim == kInvalidObject) return;
  // Fig. 5's branch: modest unit rates migrate, hot objects replicate
  // (migrating a hot object could undo a previous replication). v1 only
  // migrates sole-affinity replicas — a partial (affinity-unit) migration
  // would need an affinity-reduction wire message.
  const double unit_rate =
      agent_.UnitAccessRate(victim, transport_->Now());
  const bool migrate = unit_rate <= params.replication_threshold_m &&
                       agent_.Affinity(victim) == 1;
  const double unit_load = agent_.UnitLoad(victim);
  std::uint64_t seq = 0;
  if (migrate) {
    seq = transport_->Send(
        recipient, wire::Migrate{victim, agent_.self(), recipient, unit_load});
    pending_.emplace(seq,
                     Pending{PendingKind::kCreateMigrate, victim, recipient});
  } else {
    seq = transport_->Send(
        recipient,
        wire::Replicate{victim, agent_.self(), recipient, unit_load});
    pending_.emplace(seq,
                     Pending{PendingKind::kCreateReplicate, victim, recipient});
  }
}

}  // namespace radar::transport
