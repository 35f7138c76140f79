#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace radarbench {

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int Ledger::AddRow(const std::string& name) {
  rows_.push_back(Row{name});
  return static_cast<int>(rows_.size() - 1);
}

void Ledger::SetSpanCapacity(std::size_t max_spans) {
  max_spans_ = max_spans;
  spans_.reserve(max_spans);
  frames_.reserve(64);
}

void Ledger::Merge(const Ledger& other) {
  for (std::size_t i = 0; i < rows_.size() && i < other.rows_.size(); ++i) {
    Row& r = rows_[i];
    const Row& o = other.rows_[i];
    r.calls += o.calls;
    r.timed_calls += o.timed_calls;
    r.total_ns += o.total_ns;
    r.self_ns += o.self_ns;
    r.child_spans += o.child_spans;
  }
}

void Ledger::Calibrate(double* inner_ns, double* pair_ns, double* count_ns) {
  // Median of several rounds, so one preemption does not skew the
  // correction applied to every span of the run.
  constexpr int kRounds = 9;
  constexpr int kSpans = 200'000;
  std::vector<double> inner;
  std::vector<double> pair;
  std::vector<double> count;
  for (int round = 0; round < kRounds; ++round) {
    Ledger l;
    const int row = l.AddRow("calibrate");
    l.SetSpanCapacity(0);
    l.SetTiming(true);
    std::int64_t t0 = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      l.Begin(row);
      l.End();
    }
    std::int64_t t1 = NowNs();
    inner.push_back(static_cast<double>(l.rows()[0].total_ns) / kSpans);
    pair.push_back(static_cast<double>(t1 - t0) / kSpans);
    l.SetTiming(false);
    t0 = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      l.Begin(row);
      l.End();
    }
    t1 = NowNs();
    count.push_back(static_cast<double>(t1 - t0) / kSpans);
  }
  std::sort(inner.begin(), inner.end());
  std::sort(pair.begin(), pair.end());
  std::sort(count.begin(), count.end());
  *inner_ns = inner[kRounds / 2];
  *pair_ns = pair[kRounds / 2];
  *count_ns = count[kRounds / 2];
}

bool Ledger::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# span\trow\tparent\tstart_ns\tend_ns\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << rows_[static_cast<std::size_t>(s.row)].name << '\t'
        << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.request << '\n';
  }
  return static_cast<bool>(out);
}

void JsonOut::Sep() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonOut& JsonOut::Key(const std::string& key) {
  Sep();
  out_ += '"' + key + "\":";
  need_comma_ = false;
  return *this;
}

JsonOut& JsonOut::Num(double v) {
  Sep();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonOut& JsonOut::Int(std::int64_t v) {
  Sep();
  out_ += std::to_string(v);
  return *this;
}

JsonOut& JsonOut::Str(const std::string& v) {
  Sep();
  out_ += '"' + v + '"';
  return *this;
}

JsonOut& JsonOut::Bool(bool v) {
  Sep();
  out_ += v ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::Open() {
  Sep();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonOut& JsonOut::Close() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonOut& JsonOut::OpenArray() {
  Sep();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonOut& JsonOut::CloseArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonOut& JsonOut::Array(const std::vector<double>& values) {
  Sep();
  out_ += '[';
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g", values[i]);
    out_ += buf;
  }
  out_ += ']';
  return *this;
}

}  // namespace radarbench
