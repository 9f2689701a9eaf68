// Million-idle-connection sweep: the scalability wall the per-connection
// storage rebuild exists to move.
//
// For each event core (poll, /dev/poll, RT-signal, hybrid) and each
// population point (10k -> 1M idle connections), a paced fleet of clients
// connects and then goes silent — no requests, no trickle. The server idles
// across its periodic sweeps for a fixed window while two things are
// measured:
//
//   CPU shape   — where the idle window's virtual CPU went (wait-machinery
//                 scan cost vs timer sweeps vs loop overhead). This is the
//                 paper's poll-does-not-scale curve pushed three decades up.
//   bytes/conn  — MemLedger bytes per open connection across the descriptor
//                 table, connection slab, and interest structures. Gate:
//                 <= 256 tracked bytes per idle connection at every point,
//                 with the ledger's Sum()==total invariant intact and the
//                 fd-table / conn-slab rows cross-checked against the
//                 structures' own tracked_bytes() self-reports.
//
// The grown event cores (epoll, kqueue) additionally run with the transport
// plane attached ("+tp" rows): every idle connection then carries a cold TCP
// block and a socket backpointer on the kTransport ledger row — which is
// cross-checked against the plane's own tracked_bytes() and must fit under
// the same 256-byte gate (idle connections never allocate hot blocks or
// retransmit-queue slots).
//
// Determinism gate: every point runs twice and the full signature (memory
// ledger, time-attribution ledger, busy time, loop iterations, population)
// must match byte for byte. The fleet is self-paced — the next connect batch
// launches only when the previous one is fully established — so the ramp
// adapts to each core's speed without ever refusing a connection.
//
// Usage: bench_million_idle [--quick] [--json=FILE]
//   --quick   10k/100k points only (CI smoke); full mode adds the 1M point.
//   exit code: number of gate failures (0 = all green).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"

namespace scio {
namespace {

constexpr size_t kBytesPerConnGate = 256;
constexpr SimDuration kIdleWindow = Seconds(10);
constexpr size_t kConnectBatch = 2048;
constexpr SimDuration kBatchGap = Millis(10);

// A fleet of connections that connect and then never speak: each member
// holds its socket open and silent. Batches are launched back-to-back, the
// next one scheduled only once the server has *accepted* every member of the
// previous batch — handshake completion fires at SYN-ACK, before accept, so
// pacing on it alone would flood the accept backlog on a slow core.
class IdleFleet {
 public:
  IdleFleet(NetStack* net, std::shared_ptr<SimListener> listener,
            const ServerStats* stats, size_t target)
      : net_(net), listener_(std::move(listener)), stats_(stats), target_(target) {
    members_.reserve(target);
  }

  void Start() { LaunchBatch(); }

  size_t refused() const { return refused_; }
  bool done() const {
    return launched_ >= target_ && pending_ == 0 && ServerDrainedBatch();
  }

  void Shutdown() {
    for (auto& socket : members_) {
      if (socket != nullptr) {
        socket->Close();
      }
    }
    members_.clear();
  }

 private:
  void LaunchBatch() {
    const size_t count = std::min(kConnectBatch, target_ - launched_);
    launched_ += count;
    pending_ += count;
    for (size_t i = 0; i < count; ++i) {
      std::shared_ptr<SimSocket> socket = net_->Connect(listener_);
      if (socket == nullptr) {
        ++refused_;  // port space exhausted; counted, not retried
        --pending_;
        continue;
      }
      socket->on_connected = [this] { OnEstablished(); };
      socket->on_refused = [this] {
        ++refused_;
        --pending_;
        MaybeScheduleNext();
      };
      members_.push_back(std::move(socket));
    }
    MaybeScheduleNext();
  }

  void OnEstablished() {
    --pending_;
    MaybeScheduleNext();
  }

  void MaybeScheduleNext() {
    if (pending_ != 0 || launched_ >= target_) {
      return;
    }
    ScheduleDrainCheck();
  }

  // True once the server has accepted everything launched so far (refused
  // members never reach the accept queue).
  bool ServerDrainedBatch() const {
    return stats_->connections_accepted >= launched_ - refused_;
  }

  // The next batch waits for the accept backlog to drain, polling on the
  // batch-gap cadence; the check is a pure function of simulation state, so
  // double runs replay the ramp exactly.
  void ScheduleDrainCheck() {
    net_->kernel()->sim().ScheduleAfter(kBatchGap, [this] {
      if (ServerDrainedBatch()) {
        LaunchBatch();
      } else {
        ScheduleDrainCheck();
      }
    });
  }

  NetStack* net_;
  std::shared_ptr<SimListener> listener_;
  const ServerStats* stats_;
  size_t target_;
  std::vector<std::shared_ptr<SimSocket>> members_;
  size_t launched_ = 0;
  size_t pending_ = 0;
  size_t refused_ = 0;
};

struct PointResult {
  bool setup_ok = false;
  size_t target = 0;
  size_t open = 0;
  size_t refused = 0;
  // Tracked bytes at the idle plateau.
  uint64_t fd_bytes = 0;
  uint64_t conn_bytes = 0;
  uint64_t interest_bytes = 0;
  uint64_t timer_bytes = 0;
  uint64_t buffer_bytes = 0;
  uint64_t transport_bytes = 0;
  double bytes_per_conn = 0;
  bool ledger_consistent = false;
  bool crosscheck_ok = false;
  // CPU shape over the idle window.
  SimDuration window_busy = 0;
  double idle_cpu_pct = 0;
  SimDuration t_wait = 0;   // wait-machinery scan cost (the paper's curve)
  SimDuration t_sweep = 0;  // periodic timeout sweeps
  SimDuration t_loop = 0;   // loop overhead
  SimDuration t_other = 0;
  uint64_t window_iterations = 0;
  bool attribution_ok = false;
  std::string signature;
};

PointResult RunPoint(ServerKind kind, size_t target, bool with_transport) {
  PointResult r;
  r.target = target;

  Simulator sim;
  SimKernel kernel(&sim);
  NetConfig net_config;
  net_config.client_port_count = static_cast<int>(target) + 8192;
  NetStack net(&kernel, net_config);

  // Headroom above the population so the pressure ladder never engages:
  // target / max_fds must stay below the low watermark.
  const int max_fds = static_cast<int>(target + target / 2 + 64);
  Process& proc = kernel.CreateProcess("server", max_fds);
  Sys sys(&kernel, &proc, &net);
  // Declared before the server so it outlives the server's sockets; their
  // destructors detach from the plane.
  std::unique_ptr<TransportPlane> transport;
  if (with_transport) {
    TransportConfig tp_config;
    tp_config.max_connections = target + 8192;
    transport = std::make_unique<TransportPlane>(&kernel, &net, tp_config);
  }
  StaticContent content;
  content.AddDocument("/index.html", 6 * 1024);

  BenchmarkRunConfig config;
  config.server = kind;
  config.server_config.listen_backlog = static_cast<int>(kConnectBatch) * 2;
  config.server_config.syn_backlog.max_half_open = static_cast<int>(kConnectBatch) * 2;
  // The fleet is idle by design; only the sweep machinery should tick.
  config.server_config.idle_timeout = Seconds(1000000);
  const std::unique_ptr<HttpServerBase> server = MakeServer(config, &sys, &content);
  if (server->Setup() < 0 || server->SetupEvents() < 0) {
    return r;
  }
  r.setup_ok = true;

  IdleFleet fleet(&net, sys.listener(server->listener_fd()), &server->stats(),
                  target);
  fleet.Start();

  // Ramp: run in one-second slices until the whole fleet is established.
  // Self-pacing makes the slice count a pure function of the core's speed,
  // so double runs replay it exactly.
  const SimTime ramp_cap = Seconds(100000);
  while (!fleet.done() && kernel.now() < ramp_cap && !kernel.stopped()) {
    server->Run(kernel.now() + Seconds(1));
  }
  r.open = server->open_connections();
  r.refused = fleet.refused();

  // Memory plateau: every structure is at its idle-state footprint.
  const MemLedger mem_at_plateau = kernel.mem();
  r.fd_bytes = mem_at_plateau[MemSys::kFdTable];
  r.conn_bytes = mem_at_plateau[MemSys::kConns];
  r.interest_bytes = mem_at_plateau[MemSys::kInterests];
  r.timer_bytes = mem_at_plateau[MemSys::kTimers];
  r.buffer_bytes = mem_at_plateau[MemSys::kBuffers];
  r.transport_bytes = mem_at_plateau[MemSys::kTransport];
  r.ledger_consistent = mem_at_plateau.Consistent();
  r.crosscheck_ok = mem_at_plateau[MemSys::kFdTable] == proc.fds().tracked_bytes() &&
                    mem_at_plateau[MemSys::kConns] == server->conn_table_bytes() &&
                    (transport == nullptr ||
                     (mem_at_plateau[MemSys::kTransport] == transport->tracked_bytes() &&
                      transport->live_hot() == 0 && transport->live_segments() == 0));
  r.bytes_per_conn =
      r.open == 0 ? 0.0
                  : static_cast<double>(r.fd_bytes + r.conn_bytes + r.interest_bytes +
                                        r.transport_bytes) /
                        static_cast<double>(r.open);

  // Idle window: the population holds still; only the wait machinery and
  // the sweeps burn CPU.
  const SimDuration busy_before = kernel.busy_time();
  const TimeAttribution attr_before = kernel.attribution();
  const uint64_t iters_before = server->stats().loop_iterations;
  server->Run(kernel.now() + kIdleWindow);
  const TimeAttribution& attr = kernel.attribution();
  r.window_busy = kernel.busy_time() - busy_before;
  r.idle_cpu_pct = 100.0 * static_cast<double>(r.window_busy) /
                   static_cast<double>(kIdleWindow);
  r.window_iterations = server->stats().loop_iterations - iters_before;
  const auto delta = [&](ChargeCat cat) { return attr[cat] - attr_before[cat]; };
  r.t_wait = delta(ChargeCat::kPollfdCopyin) + delta(ChargeCat::kDriverPoll) +
             delta(ChargeCat::kWaitqueue) + delta(ChargeCat::kResultCopyout) +
             delta(ChargeCat::kDevpollScan) + delta(ChargeCat::kSignalDequeue) +
             delta(ChargeCat::kPollfdRebuild) + delta(ChargeCat::kEpollCtl) +
             delta(ChargeCat::kEpollReady) + delta(ChargeCat::kEpollWait) +
             delta(ChargeCat::kKqRegister) + delta(ChargeCat::kKqFilter);
  r.t_sweep = delta(ChargeCat::kTimerSweep);
  r.t_loop = delta(ChargeCat::kServerLoop);
  r.t_other = r.window_busy - r.t_wait - r.t_sweep - r.t_loop;
  r.attribution_ok = attr.Sum() == kernel.busy_time();

  std::ostringstream sig;
  sig << kernel.mem().Signature() << '|' << attr.Signature() << '|'
      << kernel.busy_time() << '|' << kernel.now() << '|'
      << server->stats().loop_iterations << '|'
      << server->stats().connections_accepted << '|' << r.open;
  r.signature = sig.str();

  fleet.Shutdown();
  kernel.RequestStop();
  sim.DiscardPending();
  return r;
}

std::string Fixed(double v, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

void AppendJson(std::ostringstream& out, const std::string& label,
                const PointResult& r, bool identical, bool* first) {
  if (!*first) {
    out << ",\n";
  }
  *first = false;
  out << "    {\"server\": \"" << label << "\", "
      << "\"connections\": " << r.target << ", "
      << "\"open\": " << r.open << ", "
      << "\"bytes_per_conn\": " << Fixed(r.bytes_per_conn, 1) << ", "
      << "\"fd_table_bytes\": " << r.fd_bytes << ", "
      << "\"conn_bytes\": " << r.conn_bytes << ", "
      << "\"interest_bytes\": " << r.interest_bytes << ", "
      << "\"transport_bytes\": " << r.transport_bytes << ", "
      << "\"idle_cpu_pct\": " << Fixed(r.idle_cpu_pct, 3) << ", "
      << "\"wait_ms\": " << Fixed(ToMillis(r.t_wait), 2) << ", "
      << "\"sweep_ms\": " << Fixed(ToMillis(r.t_sweep), 2) << ", "
      << "\"loop_ms\": " << Fixed(ToMillis(r.t_loop), 2) << ", "
      << "\"window_iterations\": " << r.window_iterations << ", "
      << "\"deterministic\": " << (identical ? "true" : "false") << "}";
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;

  bool quick = false;
  std::string json_path = "BENCH_million_idle.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  std::vector<size_t> points = {10'000, 100'000};
  if (!quick) {
    points.push_back(1'000'000);
  }
  // Every core runs bare; the grown cores also run with the transport plane
  // attached, which adds a kTransport ledger row per idle connection.
  struct Leg {
    ServerKind kind;
    bool with_transport;
  };
  const std::vector<Leg> legs = {
      {ServerKind::kThttpdPoll, false},  {ServerKind::kThttpdDevPoll, false},
      {ServerKind::kPhhttpd, false},     {ServerKind::kHybrid, false},
      {ServerKind::kThttpdEpoll, false}, {ServerKind::kPhhttpdKqueue, false},
      {ServerKind::kThttpdEpoll, true},  {ServerKind::kPhhttpdKqueue, true}};

  std::cout << "=== million-idle sweep: CPU shape + bytes/connection"
            << (quick ? " (quick)" : "") << " ===\n\n";
  Table table({"server", "conns", "open", "bytes_per_conn", "fd_b", "conn_b",
               "int_b", "tp_b", "idle_cpu_pct", "wait_ms", "sweep_ms",
               "loop_ms", "iters", "verdict"});

  int failures = 0;
  std::ostringstream json;
  json << "{\n  \"gate_bytes_per_conn\": " << kBytesPerConnGate
       << ",\n  \"results\": [\n";
  bool first_row = true;

  for (const Leg& leg : legs) {
    const std::string label =
        ServerKindName(leg.kind) + (leg.with_transport ? "+tp" : "");
    for (size_t n : points) {
      const PointResult a = RunPoint(leg.kind, n, leg.with_transport);
      const PointResult b = RunPoint(leg.kind, n, leg.with_transport);
      const bool identical = a.signature == b.signature;

      bool ok = true;
      std::string verdict = "ok";
      if (!a.setup_ok) {
        ok = false;
        verdict = "FAIL(setup)";
      } else if (a.open != a.target || a.refused != 0) {
        ok = false;
        verdict = "FAIL(population)";
      } else if (!a.ledger_consistent) {
        ok = false;
        verdict = "FAIL(ledger)";
      } else if (!a.crosscheck_ok) {
        ok = false;
        verdict = "FAIL(crosscheck)";
      } else if (!a.attribution_ok) {
        ok = false;
        verdict = "FAIL(attribution)";
      } else if (a.bytes_per_conn > static_cast<double>(kBytesPerConnGate)) {
        ok = false;
        verdict = "FAIL(bytes/conn)";
      } else if (!identical) {
        ok = false;
        verdict = "FAIL(determinism)";
      }
      if (!ok) {
        ++failures;
      }

      table.AddRow({label, std::to_string(a.target), std::to_string(a.open),
                    Fixed(a.bytes_per_conn, 1), std::to_string(a.fd_bytes),
                    std::to_string(a.conn_bytes),
                    std::to_string(a.interest_bytes),
                    std::to_string(a.transport_bytes), Fixed(a.idle_cpu_pct, 3),
                    Fixed(ToMillis(a.t_wait), 2), Fixed(ToMillis(a.t_sweep), 2),
                    Fixed(ToMillis(a.t_loop), 2),
                    std::to_string(a.window_iterations), verdict});
      AppendJson(json, label, a, identical, &first_row);
      std::cout << label << " @ " << n << ": " << verdict << "\n";
    }
  }

  json << "\n  ],\n  \"failures\": " << failures << "\n}\n";
  std::cout << "\n";
  table.Print(std::cout);
  table.WriteCsvFile("million_idle.csv");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
  }
  std::cout << "\nwrote million_idle.csv, " << json_path << "\n";
  if (failures != 0) {
    std::cout << failures << " gate failure(s)\n";
  }
  return failures;
}
