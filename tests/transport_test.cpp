// Tests for the real-system-mode transport layer (src/transport): node
// config parsing, the SimNet transport's TCP-like semantics (delays,
// spool-while-down, drain-on-reconnect, in-flight loss), TcpTransport's
// read -> dispatch -> reply pass over a real 127.0.0.1 socket (chunked
// and bursty input, capture group commit, same-pass replies, corrupt
// streams), and the HostNode/RedirectorNode brains driven over SimNet —
// the same protocol exchanges the daemons run over sockets, here
// deterministic and in-process: redirect round trips, Fig. 4 CreateObj
// over the wire, redirector-arbitrated drops, crash/reconnect
// conservation, and the overload shed loop end to end.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binlog/binlog.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/params.h"
#include "sim/simulator.h"
#include "transport/host_node.h"
#include "transport/node_config.h"
#include "transport/redirector_node.h"
#include "transport/sim_transport.h"
#include "transport/tcp_transport.h"
#include "wire/codec.h"

namespace radar::transport {
namespace {

std::optional<NodeConfig> Parse(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return NodeConfig::Load(in, error);
}

// ---------------------------------------------------------------------
// Node config.
// ---------------------------------------------------------------------

TEST(NodeConfigTest, ParsesRolesPortsWeightsAndComments) {
  std::string error;
  const auto config = Parse(
      "# platform\n"
      "0 redirector 10.0.0.1 9000\n"
      "1 host 10.0.0.2 9001 2.5  # beefy\n"
      "2 host 10.0.0.3 9002\n"
      "3 client 10.0.0.9 0\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->num_nodes(), 4);
  EXPECT_EQ(config->redirector(), 0);
  EXPECT_EQ(config->hosts(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(config->At(1).weight, 2.5);
  EXPECT_EQ(config->At(2).weight, 1.0);
  EXPECT_EQ(config->At(3).role, NodeRole::kClient);
  EXPECT_EQ(config->At(0).port, 9000);
  EXPECT_EQ(config->At(0).address, "10.0.0.1");
  // Round-robin over host entries (ids 1 and 2), not over all nodes.
  EXPECT_EQ(config->InitialHome(0), 1);
  EXPECT_EQ(config->InitialHome(1), 2);
  EXPECT_EQ(config->InitialHome(2), 1);
}

TEST(NodeConfigTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Parse("", &error).has_value());
  EXPECT_FALSE(Parse("0 host 10.0.0.1 9000\n", &error).has_value())
      << "no redirector must fail";
  EXPECT_FALSE(Parse("0 redirector a 1\n1 redirector b 2\n", &error)
                   .has_value())
      << "two redirectors must fail";
  EXPECT_FALSE(Parse("1 redirector a 9000\n", &error).has_value())
      << "non-dense ids must fail";
  EXPECT_FALSE(Parse("0 gateway a 9000\n", &error).has_value())
      << "unknown role must fail";
  EXPECT_FALSE(Parse("0 redirector a 0\n", &error).has_value())
      << "port 0 on a non-client must fail";
  EXPECT_FALSE(Parse("0 redirector a 70000\n", &error).has_value())
      << "out-of-range port must fail";
  EXPECT_FALSE(Parse("0 redirector a 9000 -1\n", &error).has_value())
      << "non-positive weight must fail";
  EXPECT_FALSE(Parse("0 redirector\n", &error).has_value())
      << "short line must fail";
  EXPECT_FALSE(error.empty());
}

TEST(NodeConfigTest, CliqueDistance) {
  CliqueDistance distance(3);
  EXPECT_EQ(distance.Distance(0, 0), 0);
  EXPECT_EQ(distance.Distance(0, 2), 1);
  EXPECT_EQ(distance.Distance(2, 1), 1);
}

// ---------------------------------------------------------------------
// SimNet semantics.
// ---------------------------------------------------------------------

/// Recording brain: keeps every decoded frame and peer transition.
class Recorder : public Handler {
 public:
  struct Seen {
    NodeId from;
    wire::DecodedFrame frame;
  };

  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    seen.push_back(Seen{from, frame});
  }
  void OnPeerUp(NodeId peer) override { ups.push_back(peer); }
  void OnPeerDown(NodeId peer) override { downs.push_back(peer); }

  std::vector<Seen> seen;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;
};

TEST(SimNetTest, DeliversEncodedFramesAfterDelay) {
  sim::Simulator sim;
  SimNet net(&sim, 2, 1000);
  Recorder a, b;
  Transport* ta = net.Attach(0, &a);
  net.Attach(1, &b);

  const std::uint64_t seq = ta->Send(1, wire::Request{7, 0});
  EXPECT_GE(seq, 1u);
  sim.RunUntil(999);
  EXPECT_TRUE(b.seen.empty()) << "frame must not arrive early";
  sim.RunUntil(2000);
  ASSERT_EQ(b.seen.size(), 1u);
  EXPECT_EQ(b.seen[0].from, 0);
  EXPECT_EQ(b.seen[0].frame.seq, seq);
  EXPECT_EQ(std::get<wire::Request>(b.seen[0].frame.msg),
            (wire::Request{7, 0}));
  EXPECT_EQ(net.frames_delivered(), 1u);
}

TEST(SimNetTest, DownNodeSpoolsAndDrainsInOrderLosesInFlight) {
  sim::Simulator sim;
  SimNet net(&sim, 3, 1000);
  Recorder a, b, c;
  Transport* ta = net.Attach(0, &a);
  net.Attach(1, &b);
  net.Attach(2, &c);

  // One frame in flight when the destination dies: lost (dropped
  // connection loses its buffered data).
  ta->Send(1, wire::Request{1, 0});
  sim.RunUntil(500);
  net.SetNodeUp(1, false);
  EXPECT_FALSE(ta->IsPeerUp(1));
  EXPECT_EQ(a.downs, (std::vector<NodeId>{1}));
  EXPECT_EQ(c.downs, (std::vector<NodeId>{1}));

  // Frames sent while down spool.
  ta->Send(1, wire::Request{2, 0});
  ta->Send(1, wire::Request{3, 0});
  sim.RunUntil(5000);
  EXPECT_TRUE(b.seen.empty());
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_EQ(net.frames_spooled(), 2u);

  // Reconnect: peers see it up, spool drains in send order.
  net.SetNodeUp(1, true);
  EXPECT_EQ(a.ups, (std::vector<NodeId>{1}));
  // The returning node learns about every up peer.
  EXPECT_EQ(b.ups, (std::vector<NodeId>{0, 2}));
  sim.RunUntil(10000);
  ASSERT_EQ(b.seen.size(), 2u);
  EXPECT_EQ(std::get<wire::Request>(b.seen[0].frame.msg).object, 2);
  EXPECT_EQ(std::get<wire::Request>(b.seen[1].frame.msg).object, 3);
  EXPECT_EQ(net.frames_drained(), 2u);
}

// ---------------------------------------------------------------------
// TcpTransport over 127.0.0.1: one transport, one raw-socket peer.
// ---------------------------------------------------------------------

/// A port the kernel just reported free (bind to 0, read it back).
std::uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RADAR_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  RADAR_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0);
  RADAR_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
              0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

constexpr NodeId kTcpSelf = 0;
constexpr NodeId kTcpPeer = 2;

/// Recorder whose OnFrame can also act (reply, stop the transport).
class HookRecorder : public Recorder {
 public:
  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    Recorder::OnFrame(from, frame);
    if (hook) hook(from, frame);
  }

  std::function<void(NodeId, const wire::DecodedFrame&)> hook;
};

/// Node 0's TcpTransport (capturing) plus a raw non-blocking socket that
/// plays node 2, the client: the test writes the client's bytes by hand.
/// The capture goes to a temp file the harness owns, or to
/// `capture_path` when one is given.
class TcpHarness {
 public:
  explicit TcpHarness(std::string capture_path = {})
      : owns_capture_(capture_path.empty()) {
    const std::string text = "0 redirector 127.0.0.1 " +
                             std::to_string(FreePort()) +
                             "\n1 host 127.0.0.1 " +
                             std::to_string(FreePort()) +
                             "\n2 client 127.0.0.1 0\n";
    std::string error;
    auto config = Parse(text, &error);
    RADAR_CHECK_MSG(config.has_value(), "loopback config must parse");
    config_ = std::make_unique<NodeConfig>(*std::move(config));
    capture_path_ = owns_capture_
                        ? testing::TempDir() + "radar_tcp_capture_" +
                              std::to_string(::getpid()) + ".binlog"
                        : std::move(capture_path);
    if (owns_capture_) std::remove(capture_path_.c_str());
    TcpTransport::Options options;
    options.capture_path = capture_path_;
    transport_ = std::make_unique<TcpTransport>(
        *config_, kTcpSelf, wire::PeerRole::kRedirector, &handler_, options);
    RADAR_CHECK_MSG(transport_->Start(&error), "transport must start");

    peer_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    RADAR_CHECK(peer_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_->At(kTcpSelf).port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::connect(peer_fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    RADAR_CHECK(rc == 0 || errno == EINPROGRESS);
  }

  ~TcpHarness() {
    ClosePeer();
    transport_.reset();
    if (owns_capture_) std::remove(capture_path_.c_str());
  }

  /// Writes every byte, polling the transport whenever the socket is
  /// full (a burst larger than the socket buffers must not deadlock).
  void PeerWrite(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(peer_fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else {
        RADAR_CHECK(n < 0 && (errno == EAGAIN || errno == EINTR));
        transport_->PollOnce(10);
      }
    }
  }

  /// Sends the client's Hello and polls until node 0 has identified it.
  void Identify() {
    PeerWrite(wire::Encode(1, wire::Hello{kTcpPeer, wire::PeerRole::kClient}));
    PollUntil([&] { return transport_->IsPeerUp(kTcpPeer); });
  }

  /// Polls the transport until `done` holds (gives up after ~5 s).
  void PollUntil(const std::function<bool()>& done) {
    for (int i = 0; i < 500 && !done(); ++i) transport_->PollOnce(10);
    ASSERT_TRUE(done()) << "timed out polling the transport";
  }

  /// Non-Hello frames already readable on the peer socket, without
  /// running the transport. Returns false once the peer saw EOF.
  bool PeerReadFrames(int timeout_ms, std::vector<wire::DecodedFrame>* out) {
    pollfd p{peer_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return true;
    std::array<std::uint8_t, 4096> chunk;
    while (true) {
      const ssize_t n = ::recv(peer_fd_, chunk.data(), chunk.size(), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == ECONNRESET) return false;
        break;  // EAGAIN: drained
      }
      peer_rbuf_.insert(peer_rbuf_.end(), chunk.begin(), chunk.begin() + n);
    }
    std::size_t off = 0;
    while (true) {
      const wire::DecodeResult decoded =
          wire::DecodeFrame(peer_rbuf_.data() + off, peer_rbuf_.size() - off);
      if (decoded.status != wire::DecodeStatus::kOk) break;
      off += decoded.consumed;
      if (!std::holds_alternative<wire::Hello>(decoded.frame.msg)) {
        out->push_back(decoded.frame);
      }
    }
    peer_rbuf_.erase(peer_rbuf_.begin(),
                     peer_rbuf_.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  }

  void ClosePeer() {
    if (peer_fd_ >= 0) ::close(peer_fd_);
    peer_fd_ = -1;
  }

  /// The capture's records (call after Stop, which flushes it).
  std::vector<binlog::Record> CaptureRecords() const {
    std::string error;
    const auto read = binlog::ReadBinlog(capture_path_, &error);
    EXPECT_TRUE(read.has_value()) << error;
    if (!read.has_value()) return {};
    EXPECT_TRUE(read->clean) << read->stop_reason;
    return read->records;
  }

  bool owns_capture_;
  HookRecorder handler_;
  std::unique_ptr<NodeConfig> config_;
  std::unique_ptr<TcpTransport> transport_;
  std::string capture_path_;
  int peer_fd_ = -1;
  std::vector<std::uint8_t> peer_rbuf_;
};

/// Encoded Request frames for objects first..first+count-1 (seq = object).
std::vector<std::uint8_t> RequestFrames(ObjectId first, int count) {
  std::vector<std::uint8_t> bytes;
  for (ObjectId x = first; x < first + count; ++x) {
    wire::EncodeAppend(bytes, static_cast<std::uint64_t>(x),
                       wire::Request{x, kTcpPeer});
  }
  return bytes;
}

/// Checks that the handler saw the Request frames 0..count-1 from the
/// peer, in order, then stops the transport and checks that the capture
/// holds exactly the `sent` bytes, one record per frame, with
/// non-decreasing times.
void ExpectInOrderAndCaptured(TcpHarness& h, std::size_t count,
                              const std::vector<std::uint8_t>& sent) {
  ASSERT_EQ(h.handler_.seen.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& seen = h.handler_.seen[i];
    EXPECT_EQ(seen.from, kTcpPeer);
    ASSERT_EQ(seen.frame.seq, i) << "frame " << i;
    ASSERT_EQ(std::get<wire::Request>(seen.frame.msg),
              (wire::Request{static_cast<ObjectId>(i), kTcpPeer}));
  }
  EXPECT_EQ(h.transport_->stats().frames_received, count);
  EXPECT_EQ(h.transport_->stats().decode_errors, 0u);
  EXPECT_EQ(h.transport_->stats().capture_errors, 0u);

  h.transport_->Stop();
  const std::vector<binlog::Record> records = h.CaptureRecords();
  ASSERT_EQ(records.size(), count);
  std::vector<std::uint8_t> captured;
  std::int64_t last_us = 0;
  for (const binlog::Record& rec : records) {
    EXPECT_EQ(rec.src, kTcpPeer);
    EXPECT_EQ(rec.dst, kTcpSelf);
    EXPECT_GE(rec.time_us, last_us);
    last_us = rec.time_us;
    captured.insert(captured.end(), rec.payload.begin(), rec.payload.end());
  }
  EXPECT_EQ(captured, sent);
}

TEST(TcpTransportTest, ChunkedAndBurstInputDeliversEveryFrameInOrder) {
  TcpHarness h;
  h.Identify();

  // 300 frames dribbled in 1-64 B chunks: frames straddle reads, and the
  // read buffer keeps a partial frame across passes.
  constexpr int kChunked = 300;
  const std::vector<std::uint8_t> dribble = RequestFrames(0, kChunked);
  Rng rng(42);
  for (std::size_t off = 0; off < dribble.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.NextBounded(64), dribble.size() - off);
    h.PeerWrite(std::vector<std::uint8_t>(
        dribble.begin() + static_cast<std::ptrdiff_t>(off),
        dribble.begin() + static_cast<std::ptrdiff_t>(off + n)));
    h.transport_->PollOnce(0);
    off += n;
  }
  // Then one burst larger than a 64 KiB read chunk.
  const std::vector<std::uint8_t> burst = RequestFrames(kChunked, 5000);
  ASSERT_GT(burst.size(), 64u * 1024u);
  h.PeerWrite(burst);
  constexpr std::size_t kTotal = kChunked + 5000;
  h.PollUntil([&] { return h.handler_.seen.size() >= kTotal; });

  std::vector<std::uint8_t> sent = dribble;
  sent.insert(sent.end(), burst.begin(), burst.end());
  ExpectInOrderAndCaptured(h, kTotal, sent);
}

TEST(TcpTransportTest, ReadPassIsBoundedUnderASustainedBurst) {
  TcpHarness h;
  h.Identify();
  // 4 MiB of frames, written as fast as the socket takes them: each read
  // pass takes at most kReadChunk, so the read buffer never holds more
  // than one chunk plus a partial frame, however far the peer is ahead.
  const int count =
      static_cast<int>((4u << 20) / (wire::kHeaderSize + 8)) + 1;
  const std::vector<std::uint8_t> burst = RequestFrames(0, count);
  ASSERT_GE(burst.size(), 4u << 20);
  h.PeerWrite(burst);
  h.PollUntil([&] {
    return h.handler_.seen.size() >= static_cast<std::size_t>(count);
  });

  const std::uint64_t high_water =
      h.transport_->stats().read_buffer_high_water;
  EXPECT_GT(high_water, 0u);
  EXPECT_LE(high_water, TcpTransport::kReadChunk + wire::kHeaderSize +
                            wire::kMaxPayload);
  ExpectInOrderAndCaptured(h, static_cast<std::size_t>(count), burst);
}

TEST(TcpTransportTest, CaptureWriteFailuresAreCountedAndFramesDelivered) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  TcpHarness h("/dev/full");
  h.Identify();
  h.PeerWrite(RequestFrames(0, 50));
  h.PollUntil([&] { return h.handler_.seen.size() >= 50; });
  EXPECT_EQ(h.handler_.seen.size(), 50u);
  EXPECT_EQ(h.transport_->stats().frames_received, 50u);
  EXPECT_GT(h.transport_->stats().capture_errors, 0u);
}

TEST(TcpTransportTest, StopInsideHandlerFlushesTheStagedCapture) {
  TcpHarness h;
  h.Identify();
  // The handler stops the transport on the 40th frame of one burst: the
  // frames staged so far in the pass must still reach the capture.
  constexpr std::size_t kStopAt = 40;
  h.handler_.hook = [&](NodeId, const wire::DecodedFrame&) {
    if (h.handler_.seen.size() == kStopAt) h.transport_->Stop();
  };
  h.PeerWrite(RequestFrames(0, 100));
  h.PollUntil([&] { return h.handler_.seen.size() >= kStopAt; });

  EXPECT_EQ(h.handler_.seen.size(), kStopAt);
  EXPECT_EQ(h.transport_->stats().frames_received, kStopAt);
  EXPECT_EQ(h.CaptureRecords().size(), kStopAt);
}

TEST(TcpTransportTest, ReplyLeavesInThePassThatProducedIt) {
  TcpHarness h;
  h.handler_.hook = [&](NodeId from, const wire::DecodedFrame& frame) {
    h.transport_->Send(from, wire::Ack{frame.seq, true, false});
  };
  h.Identify();
  std::vector<wire::DecodedFrame> got;
  ASSERT_TRUE(h.PeerReadFrames(0, &got));  // drain node 0's Hello
  ASSERT_TRUE(got.empty());

  h.PeerWrite(RequestFrames(7, 1));
  // One pass reads the request, runs the handler, and sends its Ack; the
  // peer must then see the Ack without the transport polling again.
  h.transport_->PollOnce(1000);
  ASSERT_EQ(h.handler_.seen.size(), 1u);
  ASSERT_TRUE(h.PeerReadFrames(1000, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::get<wire::Ack>(got[0].msg), (wire::Ack{7, true, false}));
  EXPECT_TRUE(h.transport_->Flushed());
  // The request reached the capture before its reply left the process.
  EXPECT_EQ(h.CaptureRecords().size(), 1u);

  h.transport_->Stop();
  EXPECT_EQ(h.CaptureRecords().size(), 1u);
}

TEST(TcpTransportTest, FramesAheadOfPeerCloseAreDelivered) {
  TcpHarness h;
  h.Identify();
  h.PeerWrite(RequestFrames(0, 25));
  h.ClosePeer();
  h.PollUntil([&] { return !h.transport_->IsPeerUp(kTcpPeer); });
  EXPECT_EQ(h.handler_.seen.size(), 25u);
  EXPECT_EQ(h.handler_.downs, (std::vector<NodeId>{kTcpPeer}));
  h.transport_->Stop();
  EXPECT_EQ(h.CaptureRecords().size(), 25u);
}

TEST(TcpTransportTest, GarbageBytesCloseTheConnection) {
  TcpHarness h;
  h.Identify();
  // A valid frame, then bytes that are no frame at all.
  std::vector<std::uint8_t> bytes = RequestFrames(3, 1);
  bytes.insert(bytes.end(), 64, 0xab);
  h.PeerWrite(bytes);
  h.PollUntil([&] { return h.transport_->stats().decode_errors > 0; });

  EXPECT_EQ(h.transport_->stats().decode_errors, 1u);
  EXPECT_FALSE(h.transport_->IsPeerUp(kTcpPeer));
  EXPECT_EQ(h.handler_.downs, (std::vector<NodeId>{kTcpPeer}));
  // The frame ahead of the garbage was delivered and captured.
  ASSERT_EQ(h.handler_.seen.size(), 1u);
  // The peer observes the close.
  std::vector<wire::DecodedFrame> got;
  bool open = true;
  for (int i = 0; i < 100 && open; ++i) open = h.PeerReadFrames(10, &got);
  EXPECT_FALSE(open) << "peer never saw the connection close";
  h.transport_->Stop();
  EXPECT_EQ(h.CaptureRecords().size(), 1u);
}

// ---------------------------------------------------------------------
// Brains over SimNet: the daemons' protocol, deterministic.
// ---------------------------------------------------------------------

constexpr const char* kPlatform =
    "0 redirector 127.0.0.1 9000\n"
    "1 host 127.0.0.1 9001\n"
    "2 host 127.0.0.1 9002\n"
    "3 client 127.0.0.1 0\n";

/// Forwards to a brain bound after the transport exists (the daemons'
/// SetHandler two-phase, SimNet edition).
class LateHandler final : public Handler {
 public:
  void Bind(Handler* target) { target_ = target; }

  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    if (target_ != nullptr) target_->OnFrame(from, frame);
  }
  void OnPeerUp(NodeId peer) override {
    if (target_ != nullptr) target_->OnPeerUp(peer);
  }
  void OnPeerDown(NodeId peer) override {
    if (target_ != nullptr) target_->OnPeerDown(peer);
  }

 private:
  Handler* target_ = nullptr;
};

/// One redirector + two host brains + one recording client on a SimNet.
class BrainHarness {
 public:
  explicit BrainHarness(std::int32_t num_objects,
                        core::ProtocolParams params = {}) {
    std::string error;
    auto config = Parse(kPlatform, &error);
    RADAR_CHECK_MSG(config.has_value(), "platform config must parse");
    config_ = std::make_unique<NodeConfig>(*std::move(config));
    net_ = std::make_unique<SimNet>(&sim_, config_->num_nodes(), 1000);

    RedirectorNode::Options ropt;
    ropt.num_objects = num_objects;
    redirector_ = std::make_unique<RedirectorNode>(
        *config_, net_->Attach(0, &late_[0]), ropt);
    late_[0].Bind(redirector_.get());

    HostNode::Options hopt;
    hopt.num_objects = num_objects;
    hopt.params = params;
    for (NodeId id : {1, 2}) {
      Transport* transport =
          net_->Attach(id, &late_[static_cast<std::size_t>(id)]);
      hosts_.push_back(std::make_unique<HostNode>(*config_, id, transport,
                                                  hopt));
      late_[static_cast<std::size_t>(id)].Bind(hosts_.back().get());
      transports_.push_back(transport);
    }
    client_transport_ = net_->Attach(3, &client_);

    for (auto& host : hosts_) {
      RADAR_CHECK_MSG(host->Init(&error), "host init must succeed");
    }
    sim_.RunUntil(sim_.Now() + 10'000);
  }

  HostNode& host(NodeId id) { return *hosts_[static_cast<std::size_t>(id - 1)]; }
  Transport* host_transport(NodeId id) {
    return transports_[static_cast<std::size_t>(id - 1)];
  }

  /// Client-side redirect round trip; returns the redirect target.
  NodeId AskRedirect(ObjectId x, NodeId gateway) {
    client_.seen.clear();
    client_transport_->Send(0, wire::Request{x, gateway});
    sim_.RunUntil(sim_.Now() + 10'000);
    for (const auto& s : client_.seen) {
      if (const auto* r = std::get_if<wire::Redirect>(&s.frame.msg)) {
        if (r->object == x) return r->host;
      }
    }
    return kInvalidNode;
  }

  /// Redirected fetch against a host; true when Ack'd accepted.
  bool Fetch(ObjectId x, NodeId host, NodeId gateway) {
    client_.seen.clear();
    const std::uint64_t seq =
        client_transport_->Send(host, wire::Request{x, gateway});
    sim_.RunUntil(sim_.Now() + 10'000);
    for (const auto& s : client_.seen) {
      if (const auto* a = std::get_if<wire::Ack>(&s.frame.msg)) {
        if (a->acked_seq == seq) return a->accepted;
      }
    }
    return false;
  }

  sim::Simulator sim_;
  std::unique_ptr<NodeConfig> config_;
  std::unique_ptr<SimNet> net_;
  std::array<LateHandler, 3> late_;
  std::unique_ptr<RedirectorNode> redirector_;
  std::vector<std::unique_ptr<HostNode>> hosts_;
  std::vector<Transport*> transports_;
  Recorder client_;
  Transport* client_transport_ = nullptr;
};

TEST(BrainTest, RedirectAndFetchRoundTrip) {
  BrainHarness h(4);
  // Objects 0,2 home on host 1; objects 1,3 on host 2.
  EXPECT_EQ(h.AskRedirect(0, 3), 1);
  EXPECT_EQ(h.AskRedirect(1, 3), 2);
  EXPECT_TRUE(h.Fetch(0, 1, 3));
  EXPECT_TRUE(h.Fetch(1, 2, 3));
  // A fetch for an object the host does not hold is refused, not lost.
  EXPECT_FALSE(h.Fetch(1, 1, 3));
  EXPECT_EQ(h.host(1).counters().requests_serviced, 1u);
  EXPECT_EQ(h.host(1).counters().requests_unhosted, 1u);
  EXPECT_EQ(h.redirector_->counters().redirects, 2u);
}

TEST(BrainTest, UnknownObjectRedirectsToInvalidNode) {
  BrainHarness h(2);
  EXPECT_EQ(h.AskRedirect(99, 3), kInvalidNode);
  EXPECT_EQ(h.redirector_->counters().redirects_no_replica, 1u);
}

TEST(BrainTest, CreateObjOverWireNotifiesRedirector) {
  BrainHarness h(2);
  // Host 1 receives CreateObj(REPLICATE) for object 1 (homed on host 2).
  // It must accept (it is idle), and the *recipient* notifies the
  // redirector, which records the second replica.
  h.host_transport(2)->Send(1, wire::Replicate{1, 2, 1, 0.5});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.host(1).counters().create_accepted, 1u);
  EXPECT_TRUE(h.host(1).agent().HasObject(1));
  EXPECT_EQ(h.redirector_->counters().creates_recorded, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 2);
  // The registry stayed a subset of physical copies throughout; now both
  // hosts serve object 1.
  EXPECT_TRUE(h.Fetch(1, 1, 3));
  EXPECT_TRUE(h.Fetch(1, 2, 3));
}

TEST(BrainTest, ArbitratedDropRefusedAtFloorGrantedAboveIt) {
  BrainHarness h(2);
  // Sole replica: the drop request must be refused (min_replicas 1).
  h.host_transport(2)->Send(0, wire::Migrate{1, 2, 1, 0.0});
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().drops_refused, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 1);

  // Create a second copy on host 1, then the drop is granted.
  h.host_transport(2)->Send(1, wire::Replicate{1, 2, 1, 0.5});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  ASSERT_EQ(h.redirector_->redirector().ReplicaCount(1), 2);
  h.host_transport(2)->Send(0, wire::Migrate{1, 2, 1, 0.0});
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().drops_granted, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 1);
}

TEST(BrainTest, CrashPrunesReconnectRestoresConservation) {
  BrainHarness h(4);
  ASSERT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);

  // Host 1 crashes: its replicas (objects 0 and 2) are pruned and clients
  // are no longer redirected into it.
  h.net_->SetNodeUp(1, false);
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().hosts_pruned, 1u);
  EXPECT_EQ(h.redirector_->counters().replicas_pruned, 2u);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 2);
  EXPECT_EQ(h.AskRedirect(0, 3), kInvalidNode);
  EXPECT_EQ(h.AskRedirect(1, 3), 2);

  // Reconnect: OnPeerUp re-announces the replica set, the redirector
  // restores it, and no object is lost.
  h.net_->SetNodeUp(1, true);
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->counters().announces_restored, 2u);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  EXPECT_EQ(h.AskRedirect(0, 3), 1);

  // Announcing is idempotent: a second flap restores, never double-adds.
  h.net_->SetNodeUp(1, false);
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  h.net_->SetNodeUp(1, true);
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(0), 1);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
}

TEST(BrainTest, StatsRelayHubAndSpoke) {
  BrainHarness h(2);
  // Host 1 reports its load; the redirector relays to host 2 only.
  h.host_transport(1)->Send(0, wire::PlacementStat{1, 10.0, 1.0, 2});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->counters().stats_relayed, 1u);
  EXPECT_EQ(h.host(2).counters().stats_seen, 1u);
  EXPECT_EQ(h.host(1).counters().stats_seen, 0u);
}

TEST(BrainTest, OverloadShedsHottestObjectToIdlePeer) {
  // Small watermarks and short intervals so a handful of requests push
  // host 1 into offloading mode within a few simulated seconds.
  core::ProtocolParams params;
  params.measurement_interval = SecondsToSim(1.0);
  params.placement_interval = SecondsToSim(2.0);
  params.high_watermark = 0.5;
  params.low_watermark = 0.4;
  BrainHarness h(2, params);

  // Drive requests for object 0 at host 1 while ticking both hosts (the
  // daemons call OnTick every poll; here every 100 simulated ms).
  for (int step = 0; step < 100; ++step) {
    if (step % 2 == 0) h.client_transport_->Send(1, wire::Request{0, 3});
    h.sim_.RunUntil(h.sim_.Now() + 100'000);
    h.host(1).OnTick();
    h.host(2).OnTick();
  }

  // Host 1 exceeded hw, learned from the relayed stats that host 2 is
  // idle, and shed object 0 there. Whether the Fig. 5 branch chose
  // migrate or replicate, host 2 must now hold a copy and the redirector
  // must know it — and no object was lost along the way.
  EXPECT_TRUE(h.host(2).agent().HasObject(0));
  EXPECT_GE(h.host(1).counters().migrates_out +
                h.host(1).counters().replicates_out,
            1u);
  EXPECT_GE(h.redirector_->redirector().ReplicaCount(0), 1);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  // Repeated shed rounds may bump host 2's affinity; it must be recorded.
  EXPECT_GE(h.redirector_->redirector().AffinityOf(0, 2), 1);
}

}  // namespace
}  // namespace radar::transport
