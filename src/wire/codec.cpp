#include "wire/codec.h"

#include <bit>

#include "common/check.h"
#include "common/endian.h"

namespace radar::wire {
namespace {

bool ValidType(std::uint16_t type) {
  return type >= static_cast<std::uint16_t>(MsgType::kHello) &&
         type <= static_cast<std::uint16_t>(MsgType::kShutdown);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kRedirect: return "REDIRECT";
    case MsgType::kReplicate: return "REPLICATE";
    case MsgType::kMigrate: return "MIGRATE";
    case MsgType::kAck: return "ACK";
    case MsgType::kPlacementStat: return "PLACEMENT_STAT";
    case MsgType::kAnnounce: return "ANNOUNCE";
    case MsgType::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

MsgType TypeOf(const Message& msg) {
  return std::visit(
      [](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) return MsgType::kHello;
        else if constexpr (std::is_same_v<T, Request>) return MsgType::kRequest;
        else if constexpr (std::is_same_v<T, Redirect>)
          return MsgType::kRedirect;
        else if constexpr (std::is_same_v<T, Replicate>)
          return MsgType::kReplicate;
        else if constexpr (std::is_same_v<T, Migrate>) return MsgType::kMigrate;
        else if constexpr (std::is_same_v<T, Ack>) return MsgType::kAck;
        else if constexpr (std::is_same_v<T, PlacementStat>)
          return MsgType::kPlacementStat;
        else if constexpr (std::is_same_v<T, Announce>)
          return MsgType::kAnnounce;
        else return MsgType::kShutdown;
      },
      msg);
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadPayload: return "bad-payload";
  }
  return "?";
}

std::uint32_t PayloadSize(MsgType type) {
  switch (type) {
    case MsgType::kHello: return 5;
    case MsgType::kRequest: return 8;
    case MsgType::kRedirect: return 8;
    case MsgType::kReplicate: return 20;
    case MsgType::kMigrate: return 20;
    case MsgType::kAck: return 10;
    case MsgType::kPlacementStat: return 24;
    case MsgType::kAnnounce: return 12;
    case MsgType::kShutdown: return 0;
  }
  RADAR_CHECK_MSG(false, "unknown message type");
  return 0;
}

std::vector<std::uint8_t> Encode(std::uint64_t seq, const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + PayloadSize(TypeOf(msg)));
  EncodeAppend(out, seq, msg);
  return out;
}

// RADAR_HOT: real-mode per-frame path
namespace {

/// Writes the payload of `msg` at `p`, field after field at the offsets
/// of the frame layout; returns the byte after the last field.
std::uint8_t* EncodePayload(std::uint8_t* p, const Message& msg) {
  return std::visit(
      [p](const auto& m) mutable {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) {
          p = StoreLE(p, m.node);
          p = StoreLE(p, static_cast<std::uint8_t>(m.role));
        } else if constexpr (std::is_same_v<T, Request>) {
          p = StoreLE(p, m.object);
          p = StoreLE(p, m.gateway);
        } else if constexpr (std::is_same_v<T, Redirect>) {
          p = StoreLE(p, m.object);
          p = StoreLE(p, m.host);
        } else if constexpr (std::is_same_v<T, Replicate> ||
                             std::is_same_v<T, Migrate>) {
          p = StoreLE(p, m.object);
          p = StoreLE(p, m.from);
          p = StoreLE(p, m.to);
          p = StoreLE(p, std::bit_cast<std::uint64_t>(m.unit_load));
        } else if constexpr (std::is_same_v<T, Ack>) {
          p = StoreLE(p, m.acked_seq);
          p = StoreLE(p, static_cast<std::uint8_t>(m.accepted ? 1 : 0));
          p = StoreLE(p, static_cast<std::uint8_t>(m.created_new_copy ? 1 : 0));
        } else if constexpr (std::is_same_v<T, PlacementStat>) {
          p = StoreLE(p, m.host);
          p = StoreLE(p, std::bit_cast<std::uint64_t>(m.load));
          p = StoreLE(p, std::bit_cast<std::uint64_t>(m.weight));
          p = StoreLE(p, m.num_objects);
        } else if constexpr (std::is_same_v<T, Announce>) {
          p = StoreLE(p, m.object);
          p = StoreLE(p, m.host);
          p = StoreLE(p, m.affinity);
        } else {
          static_assert(std::is_same_v<T, Shutdown>);
        }
        return p;
      },
      msg);
}

double LoadF64(const std::uint8_t* p) {
  return std::bit_cast<double>(LoadLE<std::uint64_t>(p));
}

/// Decodes the payload at `p`, which holds exactly PayloadSize(type)
/// bytes (DecodeFrame checked the length), so every field is read at its
/// fixed offset without a bounds check. Returns false on a range
/// violation (out-of-range enum or flag byte).
bool DecodePayload(MsgType type, const std::uint8_t* p, Message* out) {
  switch (type) {
    case MsgType::kHello: {
      const std::uint8_t role = p[4];
      if (role > static_cast<std::uint8_t>(PeerRole::kClient)) return false;
      *out = Hello{LoadLE<NodeId>(p), static_cast<PeerRole>(role)};
      return true;
    }
    case MsgType::kRequest:
      *out = Request{LoadLE<ObjectId>(p), LoadLE<NodeId>(p + 4)};
      return true;
    case MsgType::kRedirect:
      *out = Redirect{LoadLE<ObjectId>(p), LoadLE<NodeId>(p + 4)};
      return true;
    case MsgType::kReplicate:
      *out = Replicate{LoadLE<ObjectId>(p), LoadLE<NodeId>(p + 4),
                       LoadLE<NodeId>(p + 8), LoadF64(p + 12)};
      return true;
    case MsgType::kMigrate:
      *out = Migrate{LoadLE<ObjectId>(p), LoadLE<NodeId>(p + 4),
                     LoadLE<NodeId>(p + 8), LoadF64(p + 12)};
      return true;
    case MsgType::kAck: {
      const std::uint8_t accepted = p[8];
      const std::uint8_t created = p[9];
      if (accepted > 1 || created > 1) return false;
      *out = Ack{LoadLE<std::uint64_t>(p), accepted != 0, created != 0};
      return true;
    }
    case MsgType::kPlacementStat:
      *out = PlacementStat{LoadLE<NodeId>(p), LoadF64(p + 4), LoadF64(p + 12),
                           LoadLE<std::uint32_t>(p + 20)};
      return true;
    case MsgType::kAnnounce:
      *out = Announce{LoadLE<ObjectId>(p), LoadLE<NodeId>(p + 4),
                      LoadLE<std::int32_t>(p + 8)};
      return true;
    case MsgType::kShutdown:
      *out = Shutdown{};
      return true;
  }
  return false;
}

}  // namespace

void EncodeAppend(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  const Message& msg) {
  const MsgType type = TypeOf(msg);
  const std::uint32_t len = PayloadSize(type);
  // Grow once, then store every field through a pointer.
  const std::size_t header_at = out.size();
  out.resize(header_at + kHeaderSize + len);
  std::uint8_t* const frame = out.data() + header_at;
  std::uint8_t* p = StoreLE(frame, kMagic);
  p = StoreLE(p, kVersion);
  p = StoreLE(p, static_cast<std::uint16_t>(type));
  p = StoreLE(p, len);
  std::uint8_t* const payload = StoreLE(p, seq);
  const std::uint8_t* const end = EncodePayload(payload, msg);
  RADAR_CHECK_EQ(static_cast<std::size_t>(end - payload),
                 static_cast<std::size_t>(len));
  RADAR_CHECK_EQ(static_cast<std::size_t>(payload - frame), kHeaderSize);
}

DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size) {
  DecodeResult result;

  // Magic and version are validated from whatever prefix is present, so a
  // stream that is garbage from byte 0 is rejected immediately instead of
  // stalling in kNeedMore until kHeaderSize bytes of garbage accumulate.
  for (std::size_t i = 0; i < 4 && i < size; ++i) {
    if (data[i] != static_cast<std::uint8_t>((kMagic >> (8 * i)) & 0xff)) {
      result.status = DecodeStatus::kBadMagic;
      return result;
    }
  }
  if (size >= 6 && LoadLE<std::uint16_t>(data + 4) != kVersion) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  if (size < kHeaderSize) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }

  const std::uint16_t raw_type = LoadLE<std::uint16_t>(data + 6);
  const std::uint32_t len = LoadLE<std::uint32_t>(data + 8);
  if (len > kMaxPayload) {
    result.status = DecodeStatus::kBadLength;
    return result;
  }
  if (!ValidType(raw_type)) {
    result.status = DecodeStatus::kBadType;
    return result;
  }
  const MsgType type = static_cast<MsgType>(raw_type);
  if (len != PayloadSize(type)) {
    result.status = DecodeStatus::kBadPayload;
    return result;
  }
  if (size - kHeaderSize < len) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  if (!DecodePayload(type, data + kHeaderSize, &result.frame.msg)) {
    result.status = DecodeStatus::kBadPayload;
    return result;
  }
  result.frame.seq = LoadLE<std::uint64_t>(data + 12);
  result.status = DecodeStatus::kOk;
  result.consumed = kHeaderSize + len;
  return result;
}
// RADAR_HOT_END

}  // namespace radar::wire
