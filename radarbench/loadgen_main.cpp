// radarbench_loadgen: the loopback workload's client side.
//
//   radarbench_loadgen load --config nodes.conf --id 4 --seed 7
//       --objects 1000 --rates 20000,20000,0 --phase-seconds .5,8,3
//       --window 64 --out requests.bin
//   radarbench_loadgen shutdown --config nodes.conf --id 4 --targets 0,1,2,3
//   radarbench_loadgen remeasure --capture capture.binlog --scratch f.binlog
//       --id 4
//
// `load` runs its phases one after another, each drained before the next
// starts. A phase with a positive rate is open loop: request i is due at
// phase_start + i / rate whatever happened to earlier requests, and each
// request is timed from when it was due, so a stall is charged to every
// request queued behind it. A phase with rate 0 is closed loop: it keeps
// --window requests outstanding for its seconds, so its answered rate is
// the capacity of the platform and this client together. Objects are Zipf
// draws and gateways uniform draws, from --seed and the phase index. Each
// request is the Fig. 2 exchange: kRequest -> redirector -> kRedirect,
// then kRequest -> chosen host -> kAck. One process, one connection per
// daemon. Every phase runs to its end; run.py judges the phases. Phases
// are numbered from --first-phase (default 0) in the output and the draws.
//
// `remeasure` times the codec and the binlog on a finished run's capture:
// every captured frame is decoded, re-encoded and re-appended. It also
// counts the captured frames and payload bytes that came from node --id.
//
// All outputs are raw; run.py computes the metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "binlog/binlog.h"
#include "common/rng.h"
#include "ledger.h"
#include "transport/node_config.h"
#include "transport/tcp_transport.h"
#include "wire/codec.h"
#include "workload/workload.h"

namespace {

using radar::NodeId;
using radar::ObjectId;
using radarbench::NowNs;

constexpr std::int64_t kRequestTimeoutNs = 2'000'000'000;

std::vector<double> ParseList(const std::string& s) {
  std::vector<double> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::atof(item.c_str()));
  return out;
}

struct Flags {
  std::string mode;
  std::string config_path;
  NodeId id = radar::kInvalidNode;
  std::uint64_t seed = 1;
  std::int32_t objects = 0;
  std::vector<double> rates;
  std::vector<double> phase_seconds;
  std::vector<double> targets;
  std::string out_path;
  std::string capture_path;
  std::string scratch_path;
  std::size_t window = 0;
  int first_phase = 0;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  if (argc < 2) return false;
  f->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--config") {
      f->config_path = v;
    } else if (k == "--id") {
      f->id = std::atoi(v.c_str());
    } else if (k == "--seed") {
      f->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--objects") {
      f->objects = std::atoi(v.c_str());
    } else if (k == "--rates") {
      f->rates = ParseList(v);
    } else if (k == "--phase-seconds") {
      f->phase_seconds = ParseList(v);
    } else if (k == "--targets") {
      f->targets = ParseList(v);
    } else if (k == "--out") {
      f->out_path = v;
    } else if (k == "--capture") {
      f->capture_path = v;
    } else if (k == "--first-phase") {
      f->first_phase = std::atoi(v.c_str());
    } else if (k == "--window") {
      f->window = static_cast<std::size_t>(std::atoi(v.c_str()));
    } else if (k == "--scratch") {
      f->scratch_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 0;
}

/// One request. Times are steady-clock ns.
struct Req {
  std::int64_t due = 0;
  std::int64_t sent = 0;          ///< kRequest handed to the redirector
  std::int64_t redirected = 0;    ///< kRedirect received
  std::int64_t fetch_sent = 0;    ///< kRequest handed to the host
  std::int64_t done = 0;          ///< kAck received
  std::int64_t redirect_send_ns = 0;  ///< Send() call durations
  std::int64_t fetch_send_ns = 0;
  ObjectId object = 0;
  NodeId gateway = 0;
  NodeId host = radar::kInvalidNode;  ///< the redirect's choice
  std::int32_t phase = 0;
  std::int32_t status = 0;  ///< 0 pending, 1 ok, 2 refused/no replica, 3 timed out
};

class Client final : public radar::transport::Handler {
 public:
  Client(radar::transport::TcpTransport* transport, std::deque<Req>* reqs,
         const radar::transport::NodeConfig& config)
      : transport_(transport), reqs_(reqs), config_(config) {}

  void Send(std::size_t i) {
    Req& r = (*reqs_)[i];
    const std::int64_t t0 = NowNs();
    transport_->Send(config_.redirector(),
                     radar::wire::Request{r.object, r.gateway});
    const std::int64_t t1 = NowNs();
    r.sent = t0;
    r.redirect_send_ns = t1 - t0;
    ++requests_sent_;
    awaiting_redirect_.push_back(i);
    bytes_ += FrameBytes(radar::wire::MsgType::kRequest);
  }

  /// Ends a pending request with `status` (see Req::status).
  void Finish(Req& r, std::int32_t status) {
    if (r.status != 0) return;
    r.status = status;
    ++finished_;
  }

  void OnFrame(NodeId from, const radar::wire::DecodedFrame& frame) override {
    (void)from;
    const std::int64_t now = NowNs();
    bytes_ += FrameBytes(radar::wire::TypeOf(frame.msg));
    ++frames_this_poll_;
    if (const auto* rd = std::get_if<radar::wire::Redirect>(&frame.msg)) {
      ++redirects_received_;
      if (awaiting_redirect_.empty()) {
        ++protocol_errors_;
        return;
      }
      const std::size_t i = awaiting_redirect_.front();
      awaiting_redirect_.pop_front();
      Req& r = (*reqs_)[i];
      if (rd->object != r.object) {
        ++protocol_errors_;
        Finish(r, 2);
        return;
      }
      r.redirected = now;
      r.host = rd->host;
      if (rd->host == radar::kInvalidNode || r.status != 0) {
        Finish(r, 2);
        return;
      }
      const std::int64_t t0 = NowNs();
      const std::uint64_t seq =
          transport_->Send(rd->host, radar::wire::Request{r.object, r.gateway});
      const std::int64_t t1 = NowNs();
      r.fetch_sent = t0;
      r.fetch_send_ns = t1 - t0;
      ++fetches_sent_;
      bytes_ += FrameBytes(radar::wire::MsgType::kRequest);
      if (seq >= seq_to_req_.size()) seq_to_req_.resize(seq * 2 + 1024, -1);
      seq_to_req_[seq] = static_cast<std::int64_t>(i);
    } else if (const auto* a = std::get_if<radar::wire::Ack>(&frame.msg)) {
      if (a->acked_seq >= seq_to_req_.size() || seq_to_req_[a->acked_seq] < 0) {
        ++protocol_errors_;
        return;
      }
      Req& r = (*reqs_)[static_cast<std::size_t>(seq_to_req_[a->acked_seq])];
      seq_to_req_[a->acked_seq] = -1;
      if (r.status != 0) return;  // already timed out
      r.done = now;
      Finish(r, a->accepted ? 1 : 2);
      if (a->accepted) ++acks_accepted_;
    }
  }

  static std::uint64_t FrameBytes(radar::wire::MsgType type) {
    return radar::wire::kHeaderSize + radar::wire::PayloadSize(type);
  }

  void ResetPollFrames() { frames_this_poll_ = 0; }
  std::uint64_t frames_this_poll() const { return frames_this_poll_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t redirects_received() const { return redirects_received_; }
  std::uint64_t fetches_sent() const { return fetches_sent_; }
  std::uint64_t acks_accepted() const { return acks_accepted_; }
  std::uint64_t finished() const { return finished_; }

 private:
  radar::transport::TcpTransport* transport_;
  std::deque<Req>* reqs_;
  const radar::transport::NodeConfig& config_;
  std::deque<std::size_t> awaiting_redirect_;
  std::vector<std::int64_t> seq_to_req_;
  std::uint64_t bytes_ = 0;  ///< request-path frames sent and received
  std::uint64_t frames_this_poll_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t requests_sent_ = 0;  ///< kRequest frames to the redirector
  std::uint64_t redirects_received_ = 0;
  std::uint64_t fetches_sent_ = 0;   ///< kRequest frames to hosts
  std::uint64_t acks_accepted_ = 0;
  std::uint64_t finished_ = 0;
};

bool WaitPeerUp(radar::transport::TcpTransport& t, NodeId peer) {
  const std::int64_t deadline = t.Now() + 5'000'000;
  t.ConnectTo(peer);
  while (!t.IsPeerUp(peer)) {
    if (t.Now() >= deadline) return false;
    t.PollOnce(5);
  }
  return true;
}

/// Steady-clock reads the generator makes per answered request: Send()
/// start and end on both legs plus the arrival of kRedirect and kAck.
constexpr int kClockReadsPerRequest = 6;

/// Cost of one NowNs() call, measured over a block of calls.
double ClockReadNs() {
  constexpr int kReads = 1 << 20;
  const std::int64_t t0 = NowNs();
  std::int64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = NowNs();
  return static_cast<double>(last - t0) / kReads;
}

int RunLoad(const Flags& flags, const radar::transport::NodeConfig& config) {
  const bool any_closed =
      std::any_of(flags.rates.begin(), flags.rates.end(),
                  [](double rate) { return rate <= 0; });
  if (flags.rates.empty() || flags.rates.size() != flags.phase_seconds.size() ||
      flags.objects <= 0 || flags.out_path.empty() ||
      (any_closed && flags.window == 0)) {
    std::cerr << "radarbench_loadgen: bad load flags\n";
    return 2;
  }
  radar::workload::ZipfWorkload zipf(flags.objects);
  const auto& hosts = config.hosts();
  // A deque: a closed-loop phase grows it without reallocating.
  std::deque<Req> reqs;

  radar::transport::TcpTransport transport(config, flags.id,
                                           radar::wire::PeerRole::kClient,
                                           nullptr, {});
  Client client(&transport, &reqs, config);
  transport.SetHandler(&client);
  std::string error;
  if (!transport.Start(&error)) {
    std::cerr << "radarbench_loadgen: " << error << "\n";
    return 1;
  }
  if (!WaitPeerUp(transport, config.redirector())) return 1;
  for (const NodeId h : hosts) {
    if (!WaitPeerUp(transport, h)) return 1;
  }
  const double clock_ns = ClockReadNs();

  std::int64_t busy_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t polls = 0;
  for (std::size_t p = 0; p < flags.rates.size(); ++p) {
    // Each phase draws from its own stream, so a phase's inputs do not
    // depend on how many requests a closed-loop phase before it sent.
    const auto phase = static_cast<std::int32_t>(flags.first_phase) +
                       static_cast<std::int32_t>(p);
    radar::Rng rng(flags.seed * 0x100000001b3ULL +
                   static_cast<std::uint64_t>(phase));
    auto draw = [&](std::int64_t due) {
      Req r;
      r.phase = phase;
      r.object = zipf.NextObject(0, 0, rng);
      r.gateway = hosts[static_cast<std::size_t>(rng.NextBounded(hosts.size()))];
      r.due = due;
      reqs.push_back(r);
    };
    const double rate = flags.rates[p];
    const bool closed = rate <= 0;
    const std::size_t first = reqs.size();
    const std::int64_t phase_ns =
        static_cast<std::int64_t>(flags.phase_seconds[p] * 1e9);
    if (!closed) {
      const auto count = static_cast<std::int64_t>(rate * flags.phase_seconds[p]);
      for (std::int64_t i = 0; i < count; ++i) {
        draw(static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate));
      }
    }
    const std::int64_t start = NowNs() + (closed ? 0 : 1'000'000);
    const std::int64_t stop = start + phase_ns;
    for (std::size_t i = first; i < reqs.size(); ++i) reqs[i].due += start;
    const std::uint64_t finished_before = client.finished();
    std::size_t next = first;
    std::size_t oldest = first;  // first request that may still be pending
    for (;;) {
      const std::int64_t now = NowNs();
      if (closed) {
        while (now < stop &&
               reqs.size() - first - (client.finished() - finished_before) <
                   flags.window) {
          draw(now);
          client.Send(next++);
        }
      } else {
        while (next < reqs.size() && reqs[next].due <= now) client.Send(next++);
      }
      while (oldest < next && reqs[oldest].status != 0) ++oldest;
      for (std::size_t i = oldest; i < next; ++i) {
        if (now - reqs[i].due < kRequestTimeoutNs) break;
        client.Finish(reqs[i], 3);
      }
      const bool all_sent = closed ? now >= stop : next == reqs.size();
      if (all_sent && oldest == next) break;
      client.ResetPollFrames();
      const std::int64_t p0 = NowNs();
      transport.PollOnce(0);
      ++polls;
      if (client.frames_this_poll() > 0) {
        busy_ns += NowNs() - p0;
      } else {
        // Nothing arrived: let a daemon sharing this CPU run first.
        sched_yield();
      }
    }
    wall_ns += NowNs() - start;
  }

  // Per phase: the phase number and request count, then one column of
  // little-endian int64 per field (read by run.py's read_phases).
  std::ofstream out(flags.out_path, std::ios::binary);
  auto put = [&out](std::int64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (std::size_t begin = 0; begin < reqs.size();) {
    std::size_t end = begin;
    while (end < reqs.size() && reqs[end].phase == reqs[begin].phase) ++end;
    put(reqs[begin].phase);
    put(static_cast<std::int64_t>(end - begin));
    auto column = [&](auto field) {
      for (std::size_t i = begin; i < end; ++i) put(field(reqs[i]));
    };
    column([](const Req& r) { return std::int64_t{r.object}; });
    column([](const Req& r) { return std::int64_t{r.host}; });
    column([](const Req& r) { return r.due; });
    column([](const Req& r) { return r.sent; });
    column([](const Req& r) { return r.redirected; });
    column([](const Req& r) { return r.fetch_sent; });
    column([](const Req& r) { return r.done; });
    column([](const Req& r) { return std::int64_t{r.status}; });
    column([](const Req& r) { return r.redirect_send_ns; });
    column([](const Req& r) { return r.fetch_send_ns; });
    begin = end;
  }
  const auto& stats = transport.stats();
  std::cout << "{\"wall_s\":" << static_cast<double>(wall_ns) * 1e-9
            << ",\"busy_s\":" << static_cast<double>(busy_ns) * 1e-9
            << ",\"polls\":" << polls
            << ",\"clock_ns\":" << clock_ns
            << ",\"clock_reads_per_req\":" << kClockReadsPerRequest
            << ",\"requests_sent\":" << client.requests_sent()
            << ",\"redirects_received\":" << client.redirects_received()
            << ",\"fetches_sent\":" << client.fetches_sent()
            << ",\"acks_accepted\":" << client.acks_accepted()
            << ",\"bytes\":" << client.bytes()
            << ",\"frames_sent\":" << stats.frames_sent
            << ",\"frames_received\":" << stats.frames_received
            << ",\"frames_spooled\":" << stats.frames_spooled
            << ",\"protocol_errors\":" << client.protocol_errors() << "}\n";
  transport.Stop();
  return out ? 0 : 1;
}

int RunShutdown(const Flags& flags, const radar::transport::NodeConfig& config) {
  radar::transport::TcpTransport transport(config, flags.id,
                                           radar::wire::PeerRole::kClient,
                                           nullptr, {});
  Client client(&transport, nullptr, config);
  transport.SetHandler(&client);
  std::string error;
  if (!transport.Start(&error)) {
    std::cerr << "radarbench_loadgen: " << error << "\n";
    return 1;
  }
  // Targets in the given order (the redirector first: it prunes replicas
  // of hosts that disconnect, so its summary is only meaningful while the
  // hosts are still up).
  int rc = 0;
  for (const double t : flags.targets) {
    const auto target = static_cast<NodeId>(t);
    if (!WaitPeerUp(transport, target)) {
      rc = 1;
      continue;
    }
    transport.Send(target, radar::wire::Shutdown{});
    const std::int64_t deadline = transport.Now() + 5'000'000;
    while (!transport.Flushed() && transport.Now() < deadline) {
      transport.PollOnce(5);
    }
    if (!transport.Flushed()) rc = 1;
  }
  transport.Stop();
  return rc;
}

int RunRemeasure(const Flags& flags) {
  std::string error;
  const auto read = radar::binlog::ReadBinlog(flags.capture_path, &error);
  if (!read) {
    std::cerr << "radarbench_loadgen: " << error << "\n";
    return 1;
  }
  std::uint64_t payload_bytes = 0;
  std::uint64_t src_frames = 0;
  std::uint64_t src_bytes = 0;
  for (const radar::binlog::Record& rec : read->records) {
    payload_bytes += rec.payload.size();
    if (rec.src == flags.id) {
      ++src_frames;
      src_bytes += rec.payload.size();
    }
  }
  radar::binlog::BinlogWriter writer;
  if (!writer.Open(flags.scratch_path, radar::binlog::FsyncPolicy::kNone,
                   &error)) {
    std::cerr << "radarbench_loadgen: " << error << "\n";
    return 1;
  }
  // Three passes over the capture; per-operation medians of the passes.
  // Each operation is timed as one block over all records, so the clock's
  // own cost is not charged to every frame.
  constexpr int kPasses = 3;
  std::vector<double> decode_ns;
  std::vector<double> encode_ns;
  std::vector<double> append_ns;
  std::uint64_t frames = 0;
  std::uint64_t bad = 0;
  std::vector<radar::wire::DecodedFrame> decoded;
  std::vector<std::vector<std::uint8_t>> encoded;
  for (int pass = 0; pass < kPasses; ++pass) {
    decoded.clear();
    decoded.reserve(read->records.size());
    bad = 0;
    std::int64_t t0 = NowNs();
    for (const radar::binlog::Record& rec : read->records) {
      radar::wire::DecodeResult d =
          radar::wire::DecodeFrame(rec.payload.data(), rec.payload.size());
      if (d.status != radar::wire::DecodeStatus::kOk) {
        ++bad;
        continue;
      }
      decoded.push_back(std::move(d.frame));
    }
    std::int64_t t1 = NowNs();
    frames = decoded.size();
    const double n = static_cast<double>(std::max<std::uint64_t>(frames, 1));
    decode_ns.push_back(static_cast<double>(t1 - t0) / n);

    encoded.assign(decoded.size(), {});
    t0 = NowNs();
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      radar::wire::EncodeAppend(encoded[i], decoded[i].seq, decoded[i].msg);
    }
    t1 = NowNs();
    encode_ns.push_back(static_cast<double>(t1 - t0) / n);

    if (!writer.Reset()) return 1;
    t0 = NowNs();
    std::size_t k = 0;
    for (const radar::binlog::Record& rec : read->records) {
      if (k == encoded.size()) break;
      if (!writer.Append(rec.time_us, rec.src, rec.dst, encoded[k].data(),
                         encoded[k].size())) {
        ++bad;
      }
      ++k;
    }
    t1 = NowNs();
    append_ns.push_back(static_cast<double>(t1 - t0) / n);
    // The codec must round-trip every captured frame byte for byte.
    k = 0;
    for (const radar::binlog::Record& rec : read->records) {
      if (k < encoded.size() && encoded[k] == rec.payload) ++k;
    }
    bad += encoded.size() - k;
  }
  writer.Close();
  std::sort(decode_ns.begin(), decode_ns.end());
  std::sort(encode_ns.begin(), encode_ns.end());
  std::sort(append_ns.begin(), append_ns.end());
  std::cout << "{\"records\":" << read->records.size()
            << ",\"payload_bytes\":" << payload_bytes
            << ",\"src_frames\":" << src_frames
            << ",\"src_bytes\":" << src_bytes
            << ",\"frames\":" << frames << ",\"bad\":" << bad
            << ",\"clean\":" << (read->clean ? "true" : "false")
            << ",\"decode_ns\":" << decode_ns[kPasses / 2]
            << ",\"encode_ns\":" << encode_ns[kPasses / 2]
            << ",\"append_ns\":" << append_ns[kPasses / 2] << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: radarbench_loadgen load|shutdown|remeasure [flags]\n";
    return 2;
  }
  if (flags.mode == "remeasure") return RunRemeasure(flags);
  std::string error;
  const auto config =
      radar::transport::NodeConfig::LoadFile(flags.config_path, &error);
  if (!config) {
    std::cerr << "radarbench_loadgen: " << error << "\n";
    return 2;
  }
  if (flags.mode == "load") return RunLoad(flags, *config);
  if (flags.mode == "shutdown") return RunShutdown(flags, *config);
  std::cerr << "radarbench_loadgen: unknown mode " << flags.mode << "\n";
  return 2;
}
