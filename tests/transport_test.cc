// Tests for the opt-in transport plane: attach/detach lifecycle, real
// segmentation and reassembly, SACK loss recovery under each congestion
// stack, the scoreboard's lists and runs against the whole-queue oracle
// after every event, link-flap drain without slab or ledger leaks, a
// differential check of the Reno cwnd math against an independent
// reference, RACK-vs-Reno tail-loss recovery time, orphan abandonment, and
// the attribution and memory-ledger invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/fault/fault_plane.h"
#include "src/transport/congestion_control.h"
#include "src/transport/transport_plane.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

// Deterministic non-repeating byte pattern; any reordering or duplication in
// reassembly shows up as a content mismatch, not just a length mismatch.
std::string MakePattern(size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + (i * 31 + i / 97) % 26));
  }
  return s;
}

// Pushes `body` through the server fd as send-buffer space frees, drains the
// client side in order, and returns everything the client read.
std::string DriveTransfer(Simulator& sim, Sys& sys, int fd,
                          const std::shared_ptr<SimSocket>& client,
                          const std::string& body) {
  std::string received;
  client->on_data = [&received, client](size_t) {
    std::string chunk;
    for (;;) {
      ReadResult r = client->Read(1 << 20, &chunk);
      if (r.n == 0) {
        break;
      }
      received.append(chunk);
    }
  };
  size_t off = 0;
  int stalls = 0;
  while (off < body.size() && stalls < 20000) {
    const auto n = sys.Write(fd, Chunk{body.substr(off, 16 * 1024), 0});
    if (n <= 0) {
      ++stalls;
      sim.AdvanceTo(sim.now() + Millis(5));
      continue;
    }
    off += static_cast<size_t>(n);
  }
  EXPECT_EQ(off, body.size()) << "server never drained its send buffer";
  sim.StepUntil([&] { return received.size() >= body.size(); },
                sim.now() + Seconds(60));
  client->on_data = nullptr;
  return received;
}

class TransportWorldTest : public SimWorldTest {
 public:
  // Construct the plane after the world (it registers on net_) and before
  // any connects. plane_ dies before ~SimWorldTest's DiscardPending; its
  // destructor detaches every wired socket first, so late socket teardown
  // never calls into a dead plane.
  void AttachPlane(TransportConfig cfg = {}) {
    plane_ = std::make_unique<TransportPlane>(&kernel_, &net_, cfg);
  }

  std::unique_ptr<TransportPlane> plane_;
};

// A self-contained world for tests that compare two configurations (the
// fixture can only hold one). Destruction mirrors the fixture: DiscardPending
// runs in the body while the plane is still alive.
struct TpWorld {
  Simulator sim;
  SimKernel kernel{&sim};
  NetStack net;
  Process& proc;
  Sys sys;
  TransportPlane plane;
  int listen_fd = -1;
  std::shared_ptr<SimListener> listener;

  explicit TpWorld(TransportConfig cfg = {}, NetConfig net_cfg = {})
      : net(&kernel, net_cfg),
        proc(kernel.CreateProcess("server")),
        sys(&kernel, &proc, &net),
        plane(&kernel, &net, cfg) {
    listen_fd = sys.Listen();
    EXPECT_GE(listen_fd, 0);
    listener = sys.listener(listen_fd);
  }
  ~TpWorld() { sim.DiscardPending(); }

  std::pair<std::shared_ptr<SimSocket>, int> Establish() {
    auto client = net.Connect(listener);
    EXPECT_NE(client, nullptr);
    sim.StepUntil([&] { return listener->backlog_depth() > 0; },
                  sim.now() + Seconds(1));
    const int fd = sys.Accept(listen_fd);
    EXPECT_GE(fd, 0);
    sim.StepUntil(
        [&] { return client->state() == SimSocket::State::kEstablished; },
        sim.now() + Seconds(1));
    return {client, fd};
  }
};

// --- lifecycle ---------------------------------------------------------------

TEST_F(TransportWorldTest, AttachWiresBothEndsAndReleasesOnTeardown) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  EXPECT_EQ(plane_->stats().blocks_attached, 2u) << "client + server blocks";
  EXPECT_EQ(plane_->live_blocks(), 2u);
  EXPECT_EQ(plane_->live_hot(), 0u) << "no data in flight yet";

  EXPECT_EQ(sys_.Close(fd), 0);
  RunFor(Millis(50));
  EXPECT_TRUE(client->eof_received()) << "FIN crossed the transport path";
  client->Close();
  client.reset();
  RunFor(Seconds(1));
  EXPECT_EQ(plane_->live_blocks(), 0u);
  EXPECT_EQ(plane_->stats().blocks_released, 2u);
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], plane_->tracked_bytes());
}

TEST_F(TransportWorldTest, RoundTripCarriesRealBytesBothWays) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();

  EXPECT_EQ(client->Write(Chunk{"GET /index.html", 0}), 15u);
  RunFor(Millis(50));
  std::string req;
  EXPECT_EQ(sys_.Read(fd, 100, &req).n, 15u);
  EXPECT_EQ(req, "GET /index.html");

  std::string got;
  client->on_data = [&got, client = client](size_t) {
    std::string chunk;
    (void)client->Read(1 << 20, &chunk);
    got.append(chunk);
  };
  EXPECT_GT(sys_.Write(fd, Chunk{"HTTP/1.0 200 OK", 0}), 0);
  RunFor(Millis(50));
  EXPECT_EQ(got, "HTTP/1.0 200 OK");
  client->on_data = nullptr;

  EXPECT_EQ(plane_->stats().segments_sent, 2u);
  EXPECT_EQ(plane_->stats().segments_retransmitted, 0u);
  EXPECT_GE(plane_->stats().acks_received, 2u);
  EXPECT_GE(plane_->stats().rtt_samples, 2u);
}

TEST_F(TransportWorldTest, LargeTransferSegmentsThenQuiesces) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  const std::string body = MakePattern(120 * 1024);
  const std::string got = DriveTransfer(sim_, sys_, fd, client, body);
  EXPECT_EQ(got, body);
  EXPECT_GE(plane_->stats().segments_sent,
            static_cast<uint64_t>(body.size() / kTcpMss));

  RunFor(Seconds(1));  // final ACKs land; the connection goes idle
  EXPECT_EQ(plane_->live_segments(), 0u) << "retransmit queue fully freed";
  EXPECT_EQ(plane_->live_hot(), 0u) << "hot blocks released at quiesce";
  EXPECT_GE(plane_->stats().hot_releases, 1u);
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], plane_->tracked_bytes());
}

TEST_F(TransportWorldTest, QuiescentConnectionsStayUnderFootprintBudget) {
  AttachPlane();
  constexpr int kConns = 200;
  std::vector<std::shared_ptr<SimSocket>> clients;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    auto [client, fd] = EstablishedPair();
    clients.push_back(std::move(client));
    fds.push_back(fd);
  }
  EXPECT_EQ(plane_->live_blocks(), 2u * kConns);
  EXPECT_EQ(plane_->live_hot(), 0u) << "idle connections hold no hot state";
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], plane_->tracked_bytes());
  // Cold block + generation tag + sidecar pointer, rounded up by slab-page
  // granularity: far inside the million-idle gate's per-connection budget.
  EXPECT_LE(plane_->tracked_bytes(), 128u * kConns)
      << "quiescent server-side footprint regressed";
}

// --- loss recovery -----------------------------------------------------------

// One lossy 60 KB transfer with every 17th first transmission dropped;
// copies out the plane's counters so callers can assert per-stack behavior.
void RunLossyTransfer(CcKind kind, TransportStats* out) {
  TransportConfig cfg;
  cfg.default_cc = kind;
  TpWorld w(cfg);
  auto [client, fd] = w.Establish();
  w.plane.set_loss_hook([](bool server_sender, uint32_t seq, uint16_t retx) {
    return server_sender && retx == 0 && (seq / kTcpMss) % 17 == 5;
  });
  const std::string body = MakePattern(60 * 1024);
  const std::string got = DriveTransfer(w.sim, w.sys, fd, client, body);
  EXPECT_EQ(got.size(), body.size()) << CcKindName(kind);
  EXPECT_EQ(got, body) << CcKindName(kind) << ": reassembly corrupted bytes";
  w.sim.AdvanceTo(w.sim.now() + Seconds(1));
  EXPECT_EQ(w.plane.live_segments(), 0u) << CcKindName(kind);
  EXPECT_EQ(w.kernel.attribution().Sum(), w.kernel.busy_time())
      << CcKindName(kind) << ": attribution invariant broke under loss";
  EXPECT_GT(w.kernel.attribution()[ChargeCat::kTcpRetransmit], 0)
      << CcKindName(kind);
  *out = w.plane.stats();
}

TEST(TransportLoss, RenoRecoversViaFastRetransmit) {
  TransportStats stats;
  RunLossyTransfer(CcKind::kReno, &stats);
  EXPECT_GT(stats.segments_dropped, 0u);
  EXPECT_GT(stats.segments_retransmitted, 0u);
  EXPECT_GE(stats.fast_retransmit_entries, 1u)
      << "mid-stream drops with SACK dupacks must trigger fast retransmit";
  EXPECT_GT(stats.ooo_buffered, 0u) << "segments behind the hole buffer";
}

TEST(TransportLoss, RackMarksLossByTimeNotDupackCount) {
  TransportStats stats;
  RunLossyTransfer(CcKind::kRack, &stats);
  EXPECT_GT(stats.segments_retransmitted, 0u);
  EXPECT_GE(stats.rack_marked_lost, 1u);
}

TEST(TransportLoss, BbrDeliversUnderLossAndPaces) {
  TransportStats stats;
  RunLossyTransfer(CcKind::kBbr, &stats);
  EXPECT_GT(stats.segments_retransmitted, 0u);
}

// --- scoreboard oracle -------------------------------------------------------

// One shape of seeded lossy traffic for the scoreboard oracle: `responses`
// writes of `response_bytes` over one connection, each once the client has
// read the one before, so every response's tail can be lost. The loss hook
// draws from its own seeded stream: `p_first` of first sends, `p_repair` of
// repairs and probes.
struct OracleShape {
  SimDuration latency;
  size_t responses;
  size_t response_bytes;
  double p_first;
  double p_repair;
};

// A seeded lossy transfer whose scoreboard the plane's whole-queue oracle
// (TransportPlane::CheckScoreboard) re-derives after every simulator event.
// The link delivers in order, so only repairs arrive out of order; lost
// repairs are what let a later repair fill the gap between two parked runs.
// Delivery jitter varies every RTT sample, and with it the reorder window
// and the probe timeout. Returns the plane's counters.
TransportStats RunScoreboardOracle(CcKind kind, uint64_t seed,
                                   const OracleShape& shape) {
  SCOPED_TRACE(std::string(CcKindName(kind)) + " seed " +
               std::to_string(seed) + " latency " +
               std::to_string(shape.latency / Micros(1)) + " us");
  TransportConfig cfg;
  cfg.default_cc = kind;
  cfg.seed = seed;
  cfg.delivery_jitter = Micros(400);
  NetConfig net;
  net.latency = shape.latency;
  net.sndbuf = 256 * 1024;
  TpWorld w(cfg, net);
  auto [client, fd] = w.Establish();
  Rng drops(seed);
  w.plane.set_loss_hook([&drops, &shape](bool, uint32_t, uint16_t retx) {
    return drops.Bernoulli(retx == 0 ? shape.p_first : shape.p_repair);
  });

  std::string failure;
  auto check = [&] {
    if (failure.empty()) {
      failure = w.plane.CheckScoreboard();
    }
    return !failure.empty();
  };
  std::string received;
  client->on_data = [&received, client = client](size_t) {
    std::string chunk;
    while (client->Read(1 << 20, &chunk).n > 0) {
      received.append(chunk);
    }
  };
  const std::string body = MakePattern(shape.responses * shape.response_bytes);
  for (size_t off = 0; off < body.size() && failure.empty();) {
    const size_t end = off + shape.response_bytes;
    while (off < end && failure.empty()) {
      const auto n = w.sys.Write(fd, Chunk{body.substr(off, end - off), 0});
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else {
        w.sim.StepUntil(check, w.sim.now() + Millis(5));
      }
    }
    w.sim.StepUntil([&] { return check() || received.size() >= off; },
                    w.sim.now() + Seconds(300));
  }
  w.sim.StepUntil(check, w.sim.now() + Seconds(10));  // final ACKs, quiesce
  client->on_data = nullptr;
  EXPECT_EQ(failure, "") << "at " << w.sim.now() / Micros(1) << " us";
  if (failure.empty()) {
    EXPECT_EQ(received.size(), body.size());
    EXPECT_TRUE(received == body) << "reassembly corrupted bytes";
    EXPECT_EQ(w.plane.live_segments(), 0u);
  }
  return w.plane.stats();
}

// Each stack under two shapes. Bulk: 24 responses of 24 KB, 4% of first
// sends and 25% of repairs lost, on a LAN path and a 100 ms long-fat one,
// two seeds each. Short: 300 seeded connections, each one 40 KB response
// over a 20 ms RTT, 15% and 50% lost. Only the short sweep sends tail-loss
// probes behind a later repair, so that the probe must move its segment to
// the back of the send order (RACK seeds 37, 39 and 188, BBR 118 and 151).
// The counters show the runs reach parked segments, repairs and, for the
// time-based stacks, RACK marks and probes.
void ExpectScoreboardHolds(CcKind kind) {
  TransportStats total;
  auto add = [&total](const TransportStats& s) {
    total.ooo_buffered += s.ooo_buffered;
    total.segments_retransmitted += s.segments_retransmitted;
    total.rack_marked_lost += s.rack_marked_lost;
    total.tlp_probes += s.tlp_probes;
  };
  for (const uint64_t seed : {11, 12}) {
    for (const SimDuration latency : {Micros(150), Millis(50)}) {
      add(RunScoreboardOracle(kind, seed,
                              {latency, 24, 24 * 1024, 0.04, 0.25}));
    }
  }
  for (uint64_t seed = 1; seed <= 300 && !::testing::Test::HasFailure(); ++seed) {
    add(RunScoreboardOracle(kind, seed, {Millis(10), 1, 40 * 1024, 0.15, 0.5}));
  }
  EXPECT_GT(total.ooo_buffered, 0u);
  EXPECT_GT(total.segments_retransmitted, 0u);
  if (GetCongestionControl(kind)->TimeBasedRecovery()) {
    EXPECT_GT(total.rack_marked_lost, 0u);
    EXPECT_GT(total.tlp_probes, 0u);
  }
}

TEST(TransportScoreboard, ListsAndRunsMatchWholeQueueWalksUnderReno) {
  ExpectScoreboardHolds(CcKind::kReno);
}

TEST(TransportScoreboard, ListsAndRunsMatchWholeQueueWalksUnderRack) {
  ExpectScoreboardHolds(CcKind::kRack);
}

TEST(TransportScoreboard, ListsAndRunsMatchWholeQueueWalksUnderBbr) {
  ExpectScoreboardHolds(CcKind::kBbr);
}

// --- satellite: link flap mid-transfer must not leak -------------------------

TEST_F(TransportWorldTest, LinkFlapMidTransferDrainsWithoutLeaking) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();

  // Both directions go dark for 300 ms shortly after the transfer starts:
  // the retransmit queue is non-empty the whole window and RTO retransmits
  // pile up behind the held frames.
  FaultSchedule schedule;
  schedule.name = "flap";
  const SimTime t0 = sim_.now() + Millis(2);
  schedule.Add({FaultKind::kLinkFlap, t0, t0 + Millis(300), 1.0, 0,
                LinkDir::kBoth});
  FaultPlane fault_plane(&sim_, schedule);
  net_.InstallFaultPlane(&fault_plane);

  const std::string body = MakePattern(80 * 1024);
  const std::string got = DriveTransfer(sim_, sys_, fd, client, body);
  EXPECT_EQ(got, body);
  EXPECT_GT(fault_plane.stats().packets_flap_held, 0u)
      << "the flap window never actually bit";
  EXPECT_GT(plane_->stats().rto_fires + plane_->stats().tlp_probes +
                plane_->stats().segments_retransmitted,
            0u);

  RunFor(Seconds(5));
  EXPECT_EQ(plane_->live_segments(), 0u) << "retransmit slab leaked slots";
  EXPECT_EQ(plane_->live_hot(), 0u);
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], plane_->tracked_bytes())
      << "ledger drifted from the plane's own accounting";

  EXPECT_EQ(sys_.Close(fd), 0);
  client->Close();
  client.reset();
  RunFor(Seconds(2));
  EXPECT_EQ(plane_->live_blocks(), 0u);
  plane_.reset();
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], 0u)
      << "plane teardown left bytes on the ledger";
  EXPECT_TRUE(kernel_.mem().Consistent());
  net_.InstallFaultPlane(nullptr);
}

// --- satellite: Reno differential against an independent reference -----------

// Byte-counting NewReno per RFC 5681/6582, written directly from the spec
// text rather than from reno.cc: slow start opens one MSS per MSS acked,
// congestion avoidance one MSS per cwnd acked, halving uses the flight at
// episode entry with a 2-MSS floor, RTO collapses cwnd to 1 MSS.
struct RefReno {
  uint32_t cwnd = kTcpInitialCwndMss;
  uint32_t ssthresh = 0xffff;
  uint32_t acc = 0;

  void Ack(uint32_t acked, bool in_recovery) {
    if (in_recovery || acked == 0) {
      return;
    }
    acc += acked;
    if (cwnd < ssthresh) {
      while (acc >= kTcpMss && cwnd < kTcpMaxCwndMss) {
        acc -= kTcpMss;
        ++cwnd;
      }
    } else if (acc >= cwnd * kTcpMss) {
      acc -= cwnd * kTcpMss;
      if (cwnd < kTcpMaxCwndMss) {
        ++cwnd;
      }
    }
  }
  void EnterRecovery(uint32_t flight) {
    ssthresh = std::max<uint32_t>(flight / (2 * kTcpMss), 2);
    cwnd = ssthresh;
    acc = 0;
  }
  void ExitRecovery() {
    cwnd = ssthresh;
    acc = 0;
  }
  void Rto(uint32_t flight) {
    ssthresh = std::max<uint32_t>(flight / (2 * kTcpMss), 2);
    cwnd = 1;
    acc = 0;
  }
};

TEST(RenoDifferential, CwndTraceMatchesReferenceOver20kEvents) {
  CongestionControl* cc = GetCongestionControl(CcKind::kReno);
  ASSERT_EQ(cc->kind(), CcKind::kReno);
  TcpConn c;
  TcpHot h;
  RefReno ref;
  Rng rng(0xC0FFEE);
  for (int step = 0; step < 20000; ++step) {
    // A plausible flight for this instant; recovery math reads it.
    const uint32_t flight =
        static_cast<uint32_t>(rng.UniformInt(0, c.cwnd_mss)) * kTcpMss +
        static_cast<uint32_t>(rng.UniformInt(0, kTcpMss));
    c.snd_nxt = c.snd_una + flight;
    const int kind = static_cast<int>(rng.UniformInt(0, 99));
    if (kind < 80) {
      CcAck ack;
      ack.newly_acked = static_cast<uint32_t>(rng.UniformInt(0, 3 * kTcpMss));
      c.snd_una += std::min(ack.newly_acked, flight);
      cc->OnAck(c, h, ack);
      ref.Ack(ack.newly_acked, h.in_recovery);
    } else if (kind < 88) {
      if (!h.in_recovery) {
        cc->OnEnterRecovery(c, h);
        h.in_recovery = true;
        ref.EnterRecovery(flight);
      }
    } else if (kind < 96) {
      if (h.in_recovery) {
        h.in_recovery = false;
        cc->OnExitRecovery(c, h);
        ref.ExitRecovery();
      }
    } else {
      h.in_recovery = false;
      cc->OnRto(c, h);
      ref.Rto(flight);
    }
    ASSERT_EQ(c.cwnd_mss, ref.cwnd) << "cwnd diverged at step " << step;
    ASSERT_EQ(c.ssthresh_mss, ref.ssthresh)
        << "ssthresh diverged at step " << step;
  }
}

// --- satellite: RACK beats Reno on tail loss ---------------------------------

// A 16-segment response whose last three segments are dropped on first
// transmission: no dupacks ever come back, so dupack-counting Reno can only
// wait out the RTO while RACK's tail-loss probe re-opens the conversation.
SimDuration TailLossCompletionTime(CcKind kind) {
  TransportConfig cfg;
  cfg.default_cc = kind;
  TpWorld w(cfg);
  auto [client, fd] = w.Establish();
  w.plane.set_loss_hook([](bool server_sender, uint32_t seq, uint16_t retx) {
    return server_sender && retx == 0 && seq >= 13 * kTcpMss;
  });
  const std::string body = MakePattern(16 * kTcpMss);
  std::string received;
  client->on_data = [&received, client](size_t) {
    std::string chunk;
    for (;;) {
      ReadResult r = client->Read(1 << 20, &chunk);
      if (r.n == 0) {
        break;
      }
      received.append(chunk);
    }
  };
  const SimTime start = w.sim.now();
  EXPECT_EQ(w.sys.Write(fd, Chunk{body, 0}), static_cast<long>(body.size()));
  w.sim.StepUntil([&] { return received.size() == body.size(); },
                  start + Seconds(30));
  EXPECT_EQ(received, body) << CcKindName(kind);
  client->on_data = nullptr;
  if (kind == CcKind::kRack) {
    EXPECT_GE(w.plane.stats().tlp_probes, 1u);
  }
  return w.sim.now() - start;
}

TEST(TransportRecovery, RackRecoversTailLossFasterThanReno) {
  const SimDuration reno = TailLossCompletionTime(CcKind::kReno);
  const SimDuration rack = TailLossCompletionTime(CcKind::kRack);
  EXPECT_GE(reno, Millis(190)) << "Reno should be stuck until the RTO floor";
  EXPECT_LT(rack * 4, reno)
      << "RACK's TLP must recover well inside Reno's RTO wait";
}

// --- close paths -------------------------------------------------------------

// The lifetime rule in transport_plane.h: a client socket that is closed but
// still held keeps ACKing the server's data; once the socket is destroyed,
// segments for it are stale and get no ACK. (The load generator holds every
// finished client's socket, so its runs depend on the first half.)
TEST_F(TransportWorldTest, ClosedHeldSocketAcksUntilDestroyed) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  // The client's own data never arrives, so its block cannot drain and
  // outlives the close.
  plane_->set_loss_hook(
      [](bool server_sender, uint32_t, uint16_t) { return !server_sender; });
  EXPECT_EQ(client->Write(Chunk{"GET /", 0}), 5u);
  client->Close();
  const std::shared_ptr<SimSocket> server = sys_.socket(fd);
  const uint64_t stale_before = plane_->stats().segments_stale;

  EXPECT_EQ(sys_.Write(fd, Chunk{"", 1000}), 1000);
  RunFor(Millis(20));
  EXPECT_EQ(server->in_flight(), 0u) << "the closed, held client ACKed";
  EXPECT_EQ(plane_->stats().segments_stale, stale_before);

  EXPECT_EQ(sys_.Write(fd, Chunk{"", 1000}), 1000);
  client.reset();  // destroyed while the segment is on the wire
  RunFor(Millis(20));
  EXPECT_GT(plane_->stats().segments_stale, stale_before);
  EXPECT_EQ(server->in_flight(), 1000u) << "nothing ACKs for a destroyed socket";
}


TEST_F(TransportWorldTest, FinBehindLostSegmentWaitsForRepair) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  plane_->set_loss_hook([](bool server_sender, uint32_t seq, uint16_t retx) {
    return server_sender && retx == 0 && seq == 4 * kTcpMss;
  });
  const std::string body = MakePattern(5 * kTcpMss);
  std::string received;
  client->on_data = [&received, client](size_t) {
    std::string chunk;
    for (;;) {
      ReadResult r = client->Read(1 << 20, &chunk);
      if (r.n == 0) {
        break;
      }
      received.append(chunk);
    }
  };
  EXPECT_EQ(sys_.Write(fd, Chunk{body, 0}), static_cast<long>(body.size()));
  EXPECT_EQ(sys_.Close(fd), 0);  // FIN owed behind the doomed last segment
  sim_.StepUntil([&] { return client->eof_received(); }, sim_.now() + Seconds(10));
  EXPECT_TRUE(client->eof_received());
  EXPECT_EQ(received, body) << "EOF must not jump the repaired hole";
  EXPECT_GE(plane_->stats().fins_sent, 1u);
  client->on_data = nullptr;
}

TEST_F(TransportWorldTest, OrphanedSenderAbandonsAfterBackoffLimit) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  // The server's frames never arrive: close() orphans the block with a
  // permanently-undeliverable retransmit queue.
  plane_->set_loss_hook(
      [](bool server_sender, uint32_t, uint16_t) { return server_sender; });
  EXPECT_GT(sys_.Write(fd, Chunk{MakePattern(4 * kTcpMss), 0}), 0);
  RunFor(Millis(10));
  EXPECT_EQ(sys_.Close(fd), 0);
  RunFor(Seconds(60));
  EXPECT_EQ(plane_->stats().orphans_abandoned, 1u);
  EXPECT_EQ(plane_->live_segments(), 0u) << "abandonment must free the queue";
  EXPECT_EQ(plane_->live_blocks(), 1u) << "only the client block remains";
  EXPECT_EQ(kernel_.mem()[MemSys::kTransport], plane_->tracked_bytes());
}

// --- invariants --------------------------------------------------------------

TEST_F(TransportWorldTest, ChargesLandInTcpCategoriesAndSumToBusyTime) {
  AttachPlane();
  auto [client, fd] = EstablishedPair();
  plane_->set_loss_hook([](bool server_sender, uint32_t seq, uint16_t retx) {
    return server_sender && retx == 0 && seq == 2 * kTcpMss;
  });
  const std::string body = MakePattern(40 * 1024);
  EXPECT_EQ(DriveTransfer(sim_, sys_, fd, client, body), body);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kTcpSegment], 0);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kTcpAck], 0);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kTcpRetransmit], 0);
  EXPECT_EQ(kernel_.attribution().Sum(), kernel_.busy_time());
}

TEST(TransportDeterminism, IdenticalWorldsProduceIdenticalSignatures) {
  auto run = [] {
    TransportConfig cfg;
    cfg.seed = 7;
    cfg.delivery_jitter = Micros(200);
    TpWorld w(cfg);
    auto [client, fd] = w.Establish();
    w.plane.set_loss_hook([](bool server_sender, uint32_t seq, uint16_t retx) {
      return server_sender && retx == 0 && (seq / kTcpMss) % 11 == 3;
    });
    const std::string body = MakePattern(48 * 1024);
    EXPECT_EQ(DriveTransfer(w.sim, w.sys, fd, client, body), body);
    return std::make_pair(w.plane.stats().Signature(), w.kernel.busy_time());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace scio
