#include "binlog/binlog.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/endian.h"

namespace radar::binlog {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: kCrcTables[0] is the bytewise table of the
/// reflected polynomial, and kCrcTables[k][i] is the CRC register after
/// byte i followed by k zero bytes, so eight table lookups advance the
/// CRC over eight input bytes.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

// RADAR_HOT: real-mode per-frame path
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = LoadLE<std::uint32_t>(data) ^ crc;
    const std::uint32_t hi = LoadLE<std::uint32_t>(data + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}
// RADAR_HOT_END

BinlogWriter::~BinlogWriter() { Close(); }

bool BinlogWriter::Open(const std::string& path, FsyncPolicy fsync_policy,
                        std::string* error) {
  Close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = path + ": open failed: " + std::strerror(errno);
    }
    return false;
  }
  fd_ = fd;
  fsync_policy_ = fsync_policy;
  path_ = path;
  return true;
}

bool BinlogWriter::Stage(std::int64_t time_us, std::int32_t src,
                         std::int32_t dst, const std::uint8_t* payload,
                         std::size_t payload_size) {
  RADAR_CHECK(is_open());
  RADAR_CHECK_LE(payload_size, static_cast<std::size_t>(kMaxRecordPayload));
  const std::size_t at = staged_.size();
  staged_.resize(at + kRecordHeaderSize + payload_size);
  std::uint8_t* out = staged_.data() + at;
  StoreLE(out, kRecordMagic);
  StoreLE(out + 4, static_cast<std::uint32_t>(payload_size));
  StoreLE(out + 8, Crc32(payload, payload_size));
  StoreLE(out + 12, std::uint32_t{0});  // reserved
  StoreLE(out + 16, time_us);
  StoreLE(out + 24, src);
  StoreLE(out + 28, dst);
  if (payload_size > 0) {
    std::memcpy(out + kRecordHeaderSize, payload, payload_size);
  }
  ++records_staged_;
  return staged_.size() < kStageFlushBytes || Flush();
}

bool BinlogWriter::Flush() {
  if (staged_.empty()) return true;
  RADAR_CHECK(is_open());
  // One write per batch: records are only ever torn at the tail of the
  // batch the OS tore (the reader handles that), never by interleaving.
  bool ok = true;
  std::size_t off = 0;
  while (off < staged_.size()) {
    const ssize_t n = ::write(fd_, staged_.data() + off, staged_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok && fsync_policy_ == FsyncPolicy::kEveryFlush) {
    ok = ::fsync(fd_) == 0;
  }
  if (ok) records_written_ += records_staged_;
  staged_.clear();
  records_staged_ = 0;
  return ok;
}

bool BinlogWriter::Append(std::int64_t time_us, std::int32_t src,
                          std::int32_t dst, const std::uint8_t* payload,
                          std::size_t payload_size) {
  return Stage(time_us, src, dst, payload, payload_size) && Flush();
}

bool BinlogWriter::Reset() {
  RADAR_CHECK(is_open());
  staged_.clear();
  records_staged_ = 0;
  if (::ftruncate(fd_, 0) != 0) return false;
  if (fsync_policy_ == FsyncPolicy::kEveryFlush) {
    if (::fsync(fd_) != 0) return false;
  }
  return true;
}

void BinlogWriter::Close() {
  if (fd_ >= 0) {
    Flush();
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

std::optional<ReadResult> ReadBinlog(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  const std::uint8_t* data =
      reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t size = bytes.size();

  ReadResult result;
  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t remaining = size - pos;
    if (remaining < kRecordHeaderSize) {
      result.clean = false;
      result.stop_reason = "torn-header";
      break;
    }
    const std::uint8_t* h = data + pos;
    if (LoadLE<std::uint32_t>(h) != kRecordMagic) {
      result.clean = false;
      result.stop_reason = "bad-magic";
      break;
    }
    const auto payload_len = LoadLE<std::uint32_t>(h + 4);
    if (payload_len > kMaxRecordPayload) {
      result.clean = false;
      result.stop_reason = "bad-length";
      break;
    }
    if (remaining - kRecordHeaderSize < payload_len) {
      result.clean = false;
      result.stop_reason = "torn-payload";
      break;
    }
    const std::uint8_t* payload = h + kRecordHeaderSize;
    if (LoadLE<std::uint32_t>(h + 8) != Crc32(payload, payload_len)) {
      result.clean = false;
      result.stop_reason = "bad-crc";
      break;
    }
    Record record;
    record.time_us = LoadLE<std::int64_t>(h + 16);
    record.src = LoadLE<std::int32_t>(h + 24);
    record.dst = LoadLE<std::int32_t>(h + 28);
    record.payload.assign(payload, payload + payload_len);
    result.records.push_back(std::move(record));
    pos += kRecordHeaderSize + payload_len;
  }
  result.valid_bytes = pos;
  return result;
}

}  // namespace radar::binlog
