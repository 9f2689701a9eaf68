// Transport bench: the {Reno, RACK, BBR} congestion stacks across the
// {clean, 1% loss, long-fat, link-flap} network regimes on both grown
// event cores (thttpd-epoll, phhttpd-kqueue).
//
// Four sections, each with its own gate:
//   - matrix: every (cc, scenario, server) leg must finish real transfers
//     with the per-category virtual-CPU ledger balanced (attribution sum ==
//     busy time) and segments charged to the new kTcp* categories;
//   - long-fat goodput: on the 100 ms-RTT 1%-loss leg, the BBR-style model
//     must move a document at >= 2x NewReno's per-transfer goodput — loss is
//     not congestion on a long fat pipe, and Reno's AIMD cannot tell;
//   - recovery: under a scripted tail-burst drop, the RACK stack's TLP must
//     repair the hole well before Reno's RTO floor (socket-level microbench,
//     same drop script for both stacks);
//   - flash crowd: a burst at ~4x the paper's saturation rate with the plane
//     attached, then a double-run determinism check — same seed, identical
//     RunSignature (every counter of every plane, transport included), bit
//     for bit; the long-fat BBR legs get the same check.
//
// CSVs (cwd): transport_matrix.csv (with the full t_<category> virtual-CPU
// breakdown), transport_recovery.csv, transport_flash.csv. --quick trims
// durations and the matrix for CI smoke; gates stay on.

#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/sys.h"
#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"
#include "src/transport/transport_plane.h"

namespace scio {
namespace {

bool quick = false;

// --- matrix ------------------------------------------------------------------

struct Scenario {
  std::string name;
  NetConfig net;
  FaultSchedule faults;
  size_t document_bytes = 6 * 1024;
  double request_rate = 300.0;
  SimDuration duration = Seconds(6);
  SimDuration drain = Seconds(4);
  // httperf's default 500 ms --timeout is tuned for LAN latencies; bulk
  // transfers over a long fat pipe legitimately need seconds.
  SimDuration client_timeout = Millis(500);
  bool expect_retransmits = false;
  // Loss scenarios drop server data frames, so the repair cost must show up
  // in the server's kTcpRetransmit ledger. A flap only delays frames; its
  // retransmits are mostly client requests RTO-ing through the outage, which
  // are never charged (client CPU is free by design).
  bool expect_retx_charge = false;
  bool longfat_gate = false;  // BBR >= 2x Reno per-transfer goodput here
};

std::vector<Scenario> BuildScenarios() {
  const SimDuration dur = quick ? Seconds(3) : Seconds(6);
  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "clean";
    s.duration = dur;
    scenarios.push_back(s);
  }
  {
    Scenario s;
    s.name = "loss1";
    s.duration = dur;
    s.faults.name = s.name;
    s.faults.seed = 211;
    // 1% of frames dropped, both directions, for the whole run. The
    // magnitude only matters to legacy pipes; transport frames just die.
    s.faults.Add({FaultKind::kPacketLoss, 0, kSimTimeNever, 0.01,
                  static_cast<double>(Millis(150)), LinkDir::kBoth});
    s.expect_retransmits = true;
    s.expect_retx_charge = true;
    scenarios.push_back(s);
  }
  {
    Scenario s;
    s.name = "longfat";
    // 100 ms RTT, 1% loss: the regime where loss-as-congestion breaks down.
    // The document must be big enough that steady-state throughput — not
    // slow start — dominates the transfer (a 1 MB body is ~700 segments, so
    // every transfer sees several losses), and the rate low enough that the
    // shared link never queues; then per-transfer goodput measures the
    // stack. Reno halves on every loss it mistakes for congestion; the BBR
    // model keeps pacing at the measured bottleneck rate.
    s.net.latency = Millis(50);
    s.net.sndbuf = 256 * 1024;
    s.document_bytes = 1024 * 1024;
    s.request_rate = quick ? 2.0 : 3.0;
    s.duration = quick ? Seconds(4) : Seconds(8);
    s.drain = Seconds(16);
    s.client_timeout = Seconds(30);
    s.faults.name = s.name;
    s.faults.seed = 223;
    s.faults.Add({FaultKind::kPacketLoss, 0, kSimTimeNever, 0.01,
                  static_cast<double>(Millis(150)), LinkDir::kBoth});
    s.expect_retransmits = true;
    s.expect_retx_charge = true;
    s.longfat_gate = true;
    scenarios.push_back(s);
  }
  {
    Scenario s;
    s.name = "flap";
    s.duration = dur;
    s.faults.name = s.name;
    s.faults.seed = 229;
    // 400 ms outage mid-generation; held frames flush when it clears and
    // the stacks must repair whatever the burst reordered or timed out.
    const SimTime mid = Seconds(2) + dur / 2;
    s.faults.Add(
        {FaultKind::kLinkFlap, mid, mid + Millis(400), 1.0, 0, LinkDir::kBoth});
    s.expect_retransmits = true;
    scenarios.push_back(s);
  }
  return scenarios;
}

BenchmarkRunConfig MakeConfig(const Scenario& scenario, CcKind cc,
                              ServerKind server) {
  BenchmarkRunConfig config;
  config.server = server;
  config.net = scenario.net;
  config.faults = scenario.faults;
  config.document_bytes = scenario.document_bytes;
  config.active.request_rate = scenario.request_rate;
  config.active.duration = scenario.duration;
  config.active.client_timeout = scenario.client_timeout;
  config.active.seed = 17;
  config.active.max_retries = 3;
  config.inactive.connections = 50;
  config.drain = scenario.drain;
  config.transport_enabled = true;
  config.transport.default_cc = cc;
  config.transport.seed = 5 + static_cast<uint64_t>(cc);
  return config;
}

// Per-transfer goodput in Mbit/s: one document over the median connection
// time (connect + request + full response). The aggregate reply rate only
// measures the generator once every transfer completes inside the run; the
// median transfer is what separates the stacks on a long fat lossy pipe.
double TransferGoodputMbps(const Scenario& scenario,
                           const BenchmarkResult& result) {
  if (result.median_conn_ms <= 0) {
    return 0;
  }
  return static_cast<double>(scenario.document_bytes) * 8.0 /
         (result.median_conn_ms / 1000.0) / 1e6;
}

std::string Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

// --- recovery microbench -----------------------------------------------------

// A socket-level world (no HTTP, no generator): one established connection,
// a scripted tail-burst drop, and the clock. Mirrors the unit-test fixture
// so the bench numbers and the regression test measure the same machinery.
struct TpWorld {
  Simulator sim;
  SimKernel kernel{&sim};
  NetStack net;
  Process& proc;
  Sys sys;
  TransportPlane plane;
  int listen_fd = -1;
  std::shared_ptr<SimListener> listener;

  TpWorld(TransportConfig cfg, NetConfig net_cfg)
      : net(&kernel, net_cfg),
        proc(kernel.CreateProcess("server")),
        sys(&kernel, &proc, &net),
        plane(&kernel, &net, cfg) {
    listen_fd = sys.Listen();
    listener = sys.listener(listen_fd);
  }
  ~TpWorld() { sim.DiscardPending(); }

  std::pair<std::shared_ptr<SimSocket>, int> Establish() {
    auto client = net.Connect(listener);
    sim.StepUntil([&] { return listener->backlog_depth() > 0; },
                  sim.now() + Seconds(1));
    const int fd = sys.Accept(listen_fd);
    sim.StepUntil(
        [&] { return client->state() == SimSocket::State::kEstablished; },
        sim.now() + Seconds(1));
    return {client, fd};
  }
};

std::string MakePattern(size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + (i * 31 + i / 97) % 26));
  }
  return s;
}

struct RecoveryTrial {
  std::string name;
  NetConfig net;
  uint32_t body_segments = 16;
  uint32_t drop_from = 13;  // first-transmission drops at seq >= this * MSS
  // TLP's headline speedup needs the RTT well under the RTO floor; at 100 ms
  // RTT the probe timeout and the RTO converge and the probe only shaves the
  // difference, so the long-fat trial reports without the 2x gate.
  bool gate_speedup = true;
};

struct RecoveryOutcome {
  double completion_ms = 0;
  uint64_t tlp_probes = 0;
  uint64_t rto_fires = 0;
  uint64_t fast_retransmits = 0;
  bool content_ok = false;
};

RecoveryOutcome RunRecoveryTrial(const RecoveryTrial& trial, CcKind cc) {
  TransportConfig cfg;
  cfg.default_cc = cc;
  TpWorld w(cfg, trial.net);
  auto [client, fd] = w.Establish();
  const uint32_t drop_from = trial.drop_from;
  w.plane.set_loss_hook(
      [drop_from](bool server_sender, uint32_t seq, uint16_t retx) {
        return server_sender && retx == 0 && seq >= drop_from * kTcpMss;
      });
  const std::string body = MakePattern(trial.body_segments * kTcpMss);
  std::string received;
  client->on_data = [&received, client = client](size_t) {
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
  size_t off = 0;
  while (off < body.size()) {
    const auto n = w.sys.Write(fd, Chunk{body.substr(off, 16 * 1024), 0});
    if (n <= 0) {
      w.sim.AdvanceTo(w.sim.now() + Millis(5));
      continue;
    }
    off += static_cast<size_t>(n);
  }
  w.sim.StepUntil([&] { return received.size() == body.size(); },
                  start + Seconds(30));
  client->on_data = nullptr;

  RecoveryOutcome out;
  out.completion_ms = ToMillis(w.sim.now() - start);
  out.tlp_probes = w.plane.stats().tlp_probes;
  out.rto_fires = w.plane.stats().rto_fires;
  out.fast_retransmits = w.plane.stats().fast_retransmit_entries;
  out.content_ok = received == body;
  return out;
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  const std::vector<CcKind> stacks = {CcKind::kReno, CcKind::kRack,
                                      CcKind::kBbr};
  const std::vector<ServerKind> servers = {ServerKind::kThttpdEpoll,
                                           ServerKind::kPhhttpdKqueue};
  int failures = 0;

  // --- section 1: the full matrix -------------------------------------------
  std::cout << "=== transport: {Reno,RACK,BBR} x {clean,loss1,longfat,flap}"
            << " x {epoll,kqueue} ===\n\n";
  Table table({"scenario", "cc", "server", "reply_avg", "err_pct", "median_ms",
               "xfer_mbps", "retx", "verdict"});
  std::vector<std::string> csv_headers = {
      "scenario",   "cc",        "server",    "reply_avg", "err_pct",
      "median_ms",  "xfer_mbps", "agg_mbps",  "segments",  "retransmits",
      "fast_rtx",   "rack_lost", "tlp",       "rto",       "acks"};
  for (size_t i = 0; i < kChargeCatCount; ++i) {
    csv_headers.push_back(std::string("t_") +
                          ChargeCatName(static_cast<ChargeCat>(i)) + "_ms");
  }
  Table csv_table(std::move(csv_headers));

  // xfer_mbps by (scenario, server) for the long-fat gate, indexed by stack.
  struct LongFat {
    double mbps[3] = {0, 0, 0};
  };
  std::vector<std::pair<std::string, LongFat>> longfat;  // per server

  for (const Scenario& scenario : BuildScenarios()) {
    for (ServerKind server : servers) {
      for (CcKind cc : stacks) {
        const BenchmarkResult result =
            RunBenchmark(MakeConfig(scenario, cc, server));
        const TransportStats& tp = result.transport_stats;
        const double xfer_mbps = TransferGoodputMbps(scenario, result);
        const double agg_mbps =
            static_cast<double>(result.successes) *
            static_cast<double>(scenario.document_bytes) * 8.0 /
            ToSeconds(scenario.duration) / 1e6;

        bool ok = result.setup_ok && result.successes > 0;
        std::string verdict = ok ? "PASS" : "FAIL(no-transfers)";
        // Every charged nanosecond lands in exactly one category, and the
        // new kTcp* categories really carry the transport's CPU.
        if (result.attribution.Sum() != result.busy_time) {
          ok = false;
          verdict = "FAIL(attribution)";
        } else if (tp.segments_sent == 0 || tp.acks_received == 0 ||
                   result.attribution[ChargeCat::kTcpSegment] == 0 ||
                   result.attribution[ChargeCat::kTcpAck] == 0) {
          ok = false;
          verdict = "FAIL(no-tcp-charges)";
        } else if (scenario.expect_retransmits &&
                   tp.segments_retransmitted == 0) {
          ok = false;
          verdict = "FAIL(no-retransmits)";
        } else if (scenario.expect_retx_charge &&
                   result.attribution[ChargeCat::kTcpRetransmit] == 0) {
          ok = false;
          verdict = "FAIL(no-retx-charge)";
        }
        if (!ok) {
          ++failures;
        }

        if (scenario.longfat_gate) {
          const std::string sname = ServerKindName(server);
          auto it = longfat.begin();
          for (; it != longfat.end() && it->first != sname; ++it) {
          }
          if (it == longfat.end()) {
            longfat.push_back({sname, {}});
            it = longfat.end() - 1;
          }
          it->second.mbps[static_cast<int>(cc)] = xfer_mbps;
        }

        table.AddRow({scenario.name, CcKindName(cc), ServerKindName(server),
                      Fmt(result.reply_avg, 1), Fmt(result.error_pct, 1),
                      Fmt(result.median_conn_ms, 1), Fmt(xfer_mbps, 2),
                      std::to_string(tp.segments_retransmitted), verdict});
        std::vector<std::string> row = {
            scenario.name,
            CcKindName(cc),
            ServerKindName(server),
            Fmt(result.reply_avg, 1),
            Fmt(result.error_pct, 1),
            Fmt(result.median_conn_ms, 1),
            Fmt(xfer_mbps, 2),
            Fmt(agg_mbps, 2),
            std::to_string(tp.segments_sent),
            std::to_string(tp.segments_retransmitted),
            std::to_string(tp.fast_retransmit_entries),
            std::to_string(tp.rack_marked_lost),
            std::to_string(tp.tlp_probes),
            std::to_string(tp.rto_fires),
            std::to_string(tp.acks_received)};
        for (size_t i = 0; i < kChargeCatCount; ++i) {
          row.push_back(
              Fmt(ToMillis(result.attribution[static_cast<ChargeCat>(i)]), 3));
        }
        csv_table.AddRow(std::move(row));
      }
    }
  }
  table.Print(std::cout);
  csv_table.WriteCsvFile("transport_matrix.csv");
  std::cout << "\n(csv written to transport_matrix.csv)\n";

  // --- section 2: long-fat goodput gate --------------------------------------
  std::cout << "\n=== transport: BBR vs Reno on the long-fat 1%-loss leg ===\n\n";
  for (const auto& [server_name, lf] : longfat) {
    const double reno = lf.mbps[static_cast<int>(CcKind::kReno)];
    const double bbr = lf.mbps[static_cast<int>(CcKind::kBbr)];
    const bool ok = reno > 0 && bbr >= 2.0 * reno;
    std::cout << "  " << server_name << ": reno " << Fmt(reno, 2)
              << " Mbit/s, bbr " << Fmt(bbr, 2) << " Mbit/s ("
              << Fmt(reno > 0 ? bbr / reno : 0, 1) << "x) "
              << (ok ? "PASS" : "FAIL(bbr < 2x reno)") << "\n";
    if (!ok) {
      ++failures;
    }
  }

  // --- section 3: tail-loss recovery, RACK vs Reno ---------------------------
  std::cout << "\n=== transport: tail-loss recovery (scripted drop) ===\n\n";
  std::vector<RecoveryTrial> trials;
  {
    RecoveryTrial t;
    t.name = "lan-tail3";
    trials.push_back(t);
  }
  if (!quick) {
    RecoveryTrial t;
    t.name = "longfat-tail3";
    t.net.latency = Millis(50);
    t.net.sndbuf = 256 * 1024;
    t.body_segments = 32;
    t.drop_from = 29;
    t.gate_speedup = false;
    trials.push_back(t);
  }
  Table recovery_table({"trial", "cc", "completion_ms", "tlp", "rto",
                        "fast_rtx", "verdict"});
  for (const RecoveryTrial& trial : trials) {
    RecoveryOutcome outcomes[3];
    for (CcKind cc : stacks) {
      outcomes[static_cast<int>(cc)] = RunRecoveryTrial(trial, cc);
    }
    const RecoveryOutcome& reno = outcomes[static_cast<int>(CcKind::kReno)];
    const RecoveryOutcome& rack = outcomes[static_cast<int>(CcKind::kRack)];
    for (CcKind cc : stacks) {
      const RecoveryOutcome& out = outcomes[static_cast<int>(cc)];
      bool ok = out.content_ok;
      std::string verdict = ok ? "PASS" : "FAIL(corrupt)";
      if (cc == CcKind::kRack && ok) {
        // The headline claim: a lost tail has no dupacks to trigger fast
        // retransmit, so Reno sits out its RTO; RACK's probe must not.
        if (rack.tlp_probes == 0) {
          ok = false;
          verdict = "FAIL(no-tlp)";
        } else if (trial.gate_speedup &&
                   rack.completion_ms * 2 >= reno.completion_ms) {
          ok = false;
          verdict = "FAIL(not-faster)";
        }
      }
      if (!ok) {
        ++failures;
      }
      recovery_table.AddRow({trial.name, CcKindName(cc),
                             Fmt(out.completion_ms, 2),
                             std::to_string(out.tlp_probes),
                             std::to_string(out.rto_fires),
                             std::to_string(out.fast_retransmits), verdict});
    }
  }
  recovery_table.Print(std::cout);
  recovery_table.WriteCsvFile("transport_recovery.csv");
  std::cout << "\n(csv written to transport_recovery.csv)\n";

  // --- section 4: flash crowd + determinism ----------------------------------
  std::cout << "\n=== transport: flash crowd (4x saturation burst) + "
            << "determinism ===\n\n";
  Table flash_table({"cc", "reply_avg", "err_pct", "median_ms", "segments",
                     "retx", "determinism", "verdict"});
  for (CcKind cc : stacks) {
    Scenario flash;
    flash.name = "flash";
    flash.request_rate = quick ? 1200.0 : 2400.0;
    flash.duration = quick ? Seconds(2) : Seconds(3);
    BenchmarkRunConfig cfg = MakeConfig(flash, cc, ServerKind::kThttpdEpoll);
    cfg.inactive.connections = 2000;  // the crowd arrives over idle ballast
    const BenchmarkResult first = RunBenchmark(cfg);
    const BenchmarkResult second = RunBenchmark(cfg);
    const bool identical = first.signature == second.signature;
    bool ok = first.setup_ok && first.successes > 0 &&
              first.attribution.Sum() == first.busy_time && identical;
    if (!ok) {
      ++failures;
    }
    flash_table.AddRow(
        {CcKindName(cc), Fmt(first.reply_avg, 1), Fmt(first.error_pct, 1),
         Fmt(first.median_conn_ms, 1),
         std::to_string(first.transport_stats.segments_sent),
         std::to_string(first.transport_stats.segments_retransmitted),
         identical ? "identical" : "DIVERGED", ok ? "PASS" : "FAIL"});
  }
  flash_table.Print(std::cout);
  flash_table.WriteCsvFile("transport_flash.csv");
  std::cout << "\n(csv written to transport_flash.csv)\n";

  // Double-run the RNG-heaviest matrix leg too: long-fat loss on both
  // servers, BBR (pacing timers + jitter draws make it the busiest replay).
  for (const Scenario& scenario : BuildScenarios()) {
    if (!scenario.longfat_gate) {
      continue;
    }
    for (ServerKind server : servers) {
      const BenchmarkRunConfig cfg = MakeConfig(scenario, CcKind::kBbr, server);
      const bool identical = RunBenchmark(cfg).signature == RunBenchmark(cfg).signature;
      std::cout << "  longfat/bbr/" << ServerKindName(server) << ": "
                << (identical ? "identical" : "DIVERGED") << "\n";
      if (!identical) {
        ++failures;
      }
    }
  }

  std::cout << "\n"
            << (failures == 0 ? "ALL PASS"
                              : "FAILURES: " + std::to_string(failures))
            << std::endl;
  return failures == 0 ? 0 : 1;
}
