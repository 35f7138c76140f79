// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, aggregated per row ("module.function") into calls and
// self time, plus a bounded in-memory sample of raw spans written out when
// the run ends. Nothing here is compiled into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace radarbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations counted by the benchmark's global operator new while
/// switched on (alloc_count.cpp).
void StartAllocCount();
std::uint64_t StopAllocCount();

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

class Ledger {
 public:
  struct Row {
    std::string name;  ///< "<module>.<function>", e.g. "net.control"
    std::uint64_t calls = 0;        ///< every call, timed or not
    std::uint64_t timed_calls = 0;  ///< calls inside timed events
    std::int64_t total_ns = 0;      ///< inclusive span time, timed calls
    std::int64_t self_ns = 0;       ///< minus child spans, timed calls
    std::uint64_t child_spans = 0;
  };
  struct Span {
    std::int32_t row;
    std::int32_t parent;  ///< index into spans(), -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t request;
  };

  /// Registers a row; returns its id for Begin().
  int AddRow(const std::string& name);

  /// Keeps raw spans of timed work, up to `max_spans`.
  void SetSpanCapacity(std::size_t max_spans);

  /// Timing is switched per unit of work (the replay times one event in
  /// every few), never inside an open span; untimed calls are only
  /// counted, which keeps the traced run close to untraced speed.
  void SetTiming(bool on) { timing_ = on; }
  void SetRequest(std::int64_t id) { request_ = id; }

  void Begin(int row) {
    ++rows_[static_cast<std::size_t>(row)].calls;
    if (!timing_) return;
    frames_.push_back(Frame{row, NowNs(), 0, 0, -1});
    if (spans_.size() < max_spans_) {
      frames_.back().span = static_cast<std::int32_t>(spans_.size());
      const std::int32_t parent =
          frames_.size() > 1 ? frames_[frames_.size() - 2].span : -1;
      spans_.push_back(Span{row, parent, frames_.back().start, 0, request_});
    }
  }
  void End() {
    if (!timing_) return;
    const std::int64_t end = NowNs();
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::int64_t dur = end - f.start;
    Row& r = rows_[static_cast<std::size_t>(f.row)];
    ++r.timed_calls;
    r.total_ns += dur;
    r.self_ns += dur - f.child_ns;
    r.child_spans += f.child_spans;
    if (f.span >= 0) spans_[static_cast<std::size_t>(f.span)].end_ns = end;
    if (!frames_.empty()) {
      frames_.back().child_ns += dur;
      ++frames_.back().child_spans;
    }
  }

  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Adds another ledger's rows (same row order) into this one.
  void Merge(const Ledger& other);

  /// The tracer's own cost, measured in a tight loop (median of rounds):
  /// `inner_ns` is what an empty timed span reports (charged to the row it
  /// wraps), `pair_ns` the wall cost of a timed Begin/End pair, and
  /// `count_ns` that of an untimed (counted-only) pair.
  static void Calibrate(double* inner_ns, double* pair_ns, double* count_ns);

  /// Writes the sampled spans as tab-separated lines.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Frame {
    int row;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t child_spans;
    std::int32_t span;
  };
  std::vector<Row> rows_;
  std::vector<Frame> frames_;
  std::vector<Span> spans_;
  std::size_t max_spans_ = 0;
  std::int64_t request_ = -1;
  bool timing_ = false;
};

/// Scoped span.
class Scope {
 public:
  Scope(Ledger& ledger, int row) : ledger_(ledger) { ledger_.Begin(row); }
  ~Scope() { ledger_.End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& ledger_;
};

/// Minimal JSON object writer for the harness output (numbers, strings,
/// nested objects and number arrays).
class JsonOut {
 public:
  JsonOut& Key(const std::string& key);
  JsonOut& Num(double v);
  JsonOut& Int(std::int64_t v);
  JsonOut& Str(const std::string& v);
  JsonOut& Bool(bool v);
  JsonOut& Open();   ///< "{"
  JsonOut& Close();  ///< "}"
  JsonOut& OpenArray();   ///< "["
  JsonOut& CloseArray();  ///< "]"
  JsonOut& Array(const std::vector<double>& values);
  std::string str() const { return out_; }

 private:
  void Sep();
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace radarbench
