// Versioned little-endian frame codec (DESIGN.md §16).
//
// Frame layout:
//
//   offset  size  field
//   0       4     magic    0x52446152 ("RaDR")
//   4       2     version  1
//   6       2     type     MsgType
//   8       4     len      payload bytes (fixed per type; <= kMaxPayload)
//   12      8     seq      sender-assigned sequence number
//   20      len   payload  fixed-layout fields, little-endian
//
// Decoding is strict and total: every way a frame can be malformed maps
// to a distinct DecodeStatus, truncated input asks for more bytes instead
// of failing, and no input — fuzzed, bit-flipped, or truncated — reaches
// undefined behaviour (the codec property tests run under ASan/UBSan).
// Doubles travel as their IEEE-754 bit patterns in a u64.
//
// Every payload has a fixed size per type, so the codec is fixed-offset:
// EncodeAppend grows the buffer once by the frame size and stores each
// field at its offset, and DecodeFrame, once the header's len matches
// the type and the bytes are present, loads each field at its offset
// with no per-field bounds check (common/endian.h does the byte order).
#pragma once

#include <cstdint>
#include <vector>

#include "wire/frame.h"

namespace radar::wire {

enum class DecodeStatus : std::uint8_t {
  kOk,
  /// The buffer holds a valid prefix of a frame; feed more bytes.
  kNeedMore,
  kBadMagic,
  kBadVersion,
  /// Header len exceeds kMaxPayload (detected before buffering payload).
  kBadLength,
  kBadType,
  /// Payload length does not match the type, or a field is out of range.
  kBadPayload,
};

const char* DecodeStatusName(DecodeStatus status);

struct DecodedFrame {
  std::uint64_t seq = 0;
  Message msg;
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  /// Bytes consumed from the front of the buffer when status == kOk;
  /// 0 otherwise (errors leave the buffer untouched so callers can log or
  /// drop the connection with the bytes intact).
  std::size_t consumed = 0;
  DecodedFrame frame;
};

/// Serializes one message under the given sequence number.
std::vector<std::uint8_t> Encode(std::uint64_t seq, const Message& msg);

/// Appends the encoded frame to `out` (the transport's per-connection
/// output buffer path; avoids the temporary). Bytes already in `out`
/// are kept.
void EncodeAppend(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  const Message& msg);

/// Decodes the first frame of `data`. Never reads past `size`.
DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size);

/// Payload size of a message type on the wire.
std::uint32_t PayloadSize(MsgType type);

}  // namespace radar::wire
