// Append-only binary event log (DESIGN.md §16).
//
// Real-system mode uses one log format for three jobs:
//   - per-peer spool: frames addressed to a down peer are appended here
//     and drained (re-sent, then the file is reset) on reconnect,
//   - per-host state WAL: replica-set changes ('C'reate/'D'rop ops) are
//     appended so a SIGKILL'd host rebuilds its replica set on restart,
//   - capture: every frame a daemon receives can be appended for offline,
//     deterministic replay through the simulator (binlog/replay.h).
//
// Writes are group-committed: Stage builds a record into the writer's
// buffer and Flush hands every staged record to the OS with one write(2)
// (plus one fsync under kEveryFlush). Append is Stage + Flush, so the
// spool and the WAL stay per record; the transport stages the capture
// frames of one read pass and flushes once at the end of the pass, before
// any reply produced by that pass can leave the process.
//
// Record layout (little-endian):
//
//   offset  size  field
//   0       4     record magic 0x474c4252 ("RBLG")
//   4       4     payload_len  (<= kMaxRecordPayload)
//   8       4     crc32        IEEE CRC-32 of the payload bytes
//   12      4     reserved     0
//   16      8     time_us      writer-supplied time, microseconds
//   24      4     src          originating node
//   28      4     dst          destination node
//   32      n     payload      opaque bytes (wire frame, WAL op, ...)
//
// The CRC is computed slice-by-8 (eight table lookups per eight payload
// bytes), bit-identical to the bytewise IEEE CRC-32. time_us is whatever
// the writer passes: the transport stamps every capture record of one
// read pass with that pass's single clock reading.
//
// The reader validates magic, length, and CRC per record and stops at the
// first record that fails — a writer killed mid-append (torn header, torn
// payload, flipped bits) costs exactly the tail, never the valid prefix.
// A torn batch is no different: the records of the batch that reached the
// file whole are read back, the torn one and everything after it are not.
// Reading is a pure function of the file bytes, so two reads of the same
// file yield byte-identical record sequences (the replay determinism
// anchor).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace radar::binlog {

inline constexpr std::uint32_t kRecordMagic = 0x474c4252u;  // "RBLG"
inline constexpr std::size_t kRecordHeaderSize = 32;
/// Generous bound: spool/capture payloads are single wire frames (tens of
/// bytes); anything larger is corruption.
inline constexpr std::uint32_t kMaxRecordPayload = 1 << 20;
/// Stage flushes on its own once this many bytes are staged, so a long
/// read pass keeps the writer's buffer bounded.
inline constexpr std::size_t kStageFlushBytes = 64 * 1024;

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) of `data`, slice-by-8.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

enum class FsyncPolicy : std::uint8_t {
  /// Let the OS flush; a crash may lose recent records (the reader still
  /// stops cleanly at the last durable one).
  kNone,
  /// fsync after every Flush: a flushed record survives power loss, at
  /// one extra syscall per flush (per record for Append, per read pass
  /// for the capture). Daemons expose this as a flag.
  kEveryFlush,
};

struct Record {
  std::int64_t time_us = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Appends records to a log file (created if absent, opened at the end
/// otherwise — restart continues the same log).
class BinlogWriter {
 public:
  BinlogWriter() = default;
  ~BinlogWriter();

  BinlogWriter(const BinlogWriter&) = delete;
  BinlogWriter& operator=(const BinlogWriter&) = delete;

  /// Opens `path` for appending. Returns false (and fills *error) on I/O
  /// failure.
  bool Open(const std::string& path, FsyncPolicy fsync_policy,
            std::string* error);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Builds one record into the buffer without writing it; the next
  /// Flush (or Close) writes it. Flushes early once kStageFlushBytes are
  /// staged. Returns false only when that early flush fails.
  bool Stage(std::int64_t time_us, std::int32_t src, std::int32_t dst,
             const std::uint8_t* payload, std::size_t payload_size);

  /// Writes every staged record with one write (and, under kEveryFlush,
  /// one fsync). Returns false on I/O failure; the batch is dropped then,
  /// and the reader stops at whatever part of it was torn. A no-op when
  /// nothing is staged.
  bool Flush();

  /// Stage + Flush: one record, written before returning.
  bool Append(std::int64_t time_us, std::int32_t src, std::int32_t dst,
              const std::uint8_t* payload, std::size_t payload_size);

  /// Truncates the log to empty (spool drain), discarding anything
  /// staged. The file stays open.
  bool Reset();

  /// Flushes what is staged, then closes the file.
  void Close();

  /// Records that reached the file (staged records count once flushed).
  std::uint64_t records_written() const { return records_written_; }

 private:
  int fd_ = -1;
  FsyncPolicy fsync_policy_ = FsyncPolicy::kNone;
  std::string path_;
  std::uint64_t records_written_ = 0;
  std::uint64_t records_staged_ = 0;
  std::vector<std::uint8_t> staged_;
};

/// Result of reading a log file: the valid record prefix plus how the
/// read ended.
struct ReadResult {
  std::vector<Record> records;
  /// True when the file ended exactly at a record boundary; false when
  /// the reader stopped early (torn/corrupt tail).
  bool clean = true;
  /// Byte offset of the first invalid record (== file size when clean).
  std::uint64_t valid_bytes = 0;
  /// Why the read stopped when !clean: "torn-header", "bad-magic",
  /// "bad-length", "torn-payload", "bad-crc".
  std::string stop_reason;
};

/// Reads every valid record of `path`. A missing file is an error
/// (nullopt); an empty file is a clean zero-record log.
std::optional<ReadResult> ReadBinlog(const std::string& path,
                                     std::string* error);

}  // namespace radar::binlog
