#include "simbench/workloads.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include "src/load/benchmark_run.h"
#include "src/load/httperf.h"
#include "src/load/smp_benchmark_run.h"
#include "src/metrics/percentile.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/trace/flight_recorder.h"

namespace simbench {
namespace {

using scio::BenchmarkResult;
using scio::BenchmarkRunConfig;
using scio::ChargeCat;
using scio::ListenerMode;
using scio::Millis;
using scio::Seconds;
using scio::ServerKind;
using scio::SimDuration;
using scio::SmpBenchmarkConfig;
using scio::SmpBenchmarkResult;

// The checked-in benches' seeds correspond to kDefaultSeed; another seed
// shifts every stream by the same offset (unsigned, so it wraps).
uint64_t Shift(uint64_t base, uint64_t seed) { return base + (seed - kDefaultSeed); }

// --- leg lists ----------------------------------------------------------------

struct SingleLeg {
  std::string name;
  BenchmarkRunConfig config;
};

struct SmpLeg {
  std::string name;
  SmpBenchmarkConfig config;
};

// FIG 15's six single-CPU cores.
const ServerKind kFig15Servers[] = {ServerKind::kThttpdPoll,    ServerKind::kThttpdDevPoll,
                                    ServerKind::kPhhttpd,       ServerKind::kThttpdEpoll,
                                    ServerKind::kThttpdEpollEt, ServerKind::kPhhttpdKqueue};

// bench_fig15_successors at load 501: every core faces the same arrivals.
std::vector<SingleLeg> PaperIdle501Legs(uint64_t seed) {
  std::vector<SingleLeg> legs;
  for (ServerKind server : kFig15Servers) {
    for (int rate : {500, 700, 900, 1100}) {
      BenchmarkRunConfig c;
      c.server = server;
      c.active.request_rate = rate;
      c.active.duration = Seconds(10);
      c.active.seed = seed + static_cast<uint64_t>(rate);
      c.inactive.connections = 501;
      c.inactive.seed = seed * 31 + static_cast<uint64_t>(rate);
      c.sample_width = Seconds(1);
      legs.push_back({scio::ServerKindName(server) + "@" + std::to_string(rate), c});
    }
  }
  return legs;
}

// bench_transport's clean / loss1 / longfat regimes on both grown cores.
// The 6 KB legs run 8 s at 300 req/s so each holds >= kMinConnSamples.
// The long-fat legs take httperf's evenly spaced arrivals (seeded +/-10%
// jitter) in place of Poisson: their 1 MB transfers are ~half the batch's
// real time, and a Poisson count of ~24 moved it by +/-20% between seeds.
std::vector<SingleLeg> TransportLossyLegs(uint64_t seed) {
  std::vector<SingleLeg> legs;
  const scio::FaultWindow loss1{scio::FaultKind::kPacketLoss, 0, scio::kSimTimeNever, 0.01,
                                static_cast<double>(Millis(150)), scio::LinkDir::kBoth};
  for (ServerKind server : {ServerKind::kThttpdEpollEt, ServerKind::kPhhttpdKqueue}) {
    for (scio::CcKind cc : {scio::CcKind::kReno, scio::CcKind::kRack, scio::CcKind::kBbr}) {
      for (const char* path : {"clean", "loss1", "longfat"}) {
        BenchmarkRunConfig c;
        c.server = server;
        c.active.request_rate = 300;
        c.active.duration = Seconds(8);
        c.active.seed = Shift(17, seed);
        c.active.max_retries = 3;
        c.inactive.connections = 50;
        c.inactive.seed = Shift(2, seed);
        c.transport_enabled = true;
        c.transport.default_cc = cc;
        c.transport.seed = Shift(5 + static_cast<uint64_t>(cc), seed);
        const std::string p = path;
        if (p != "clean") {
          c.faults.name = p;
          c.faults.seed = Shift(p == "loss1" ? 211 : 223, seed);
          c.faults.Add(loss1);
        }
        if (p == "longfat") {
          // 100 ms RTT and a 1 MB body: bulk cost rather than per-segment.
          c.net.latency = Millis(50);
          c.net.sndbuf = 256 * 1024;
          c.document_bytes = 1024 * 1024;
          c.active.request_rate = 3;
          c.active.poisson_arrivals = false;  // see TransportLossyLegs
          c.active.client_timeout = Seconds(30);
          c.drain = Seconds(16);
        }
        legs.push_back({scio::ServerKindName(server) + "/" + scio::CcKindName(cc) + "/" + p, c});
      }
    }
  }
  return legs;
}

// bench_smp_scaling's 4-CPU scaling rows (quick warm-up and drain), with
// httperf's evenly spaced arrivals (seeded +/-10% jitter) in place of
// Poisson: over a 1 s window the Poisson count alone moves the offered load
// by +/-2% between seeds, and this close to saturation that doubles the
// median connection time.
constexpr SimDuration kSmpWindow = Seconds(1);

std::vector<SmpLeg> Smp4CpuLegs(uint64_t seed) {
  std::vector<SmpLeg> legs;
  for (ServerKind server : {ServerKind::kThttpdDevPoll, ServerKind::kPhhttpd}) {
    for (ListenerMode mode :
         {ListenerMode::kSharedWakeAll, ListenerMode::kSharedWakeOne, ListenerMode::kSharded}) {
      SmpBenchmarkConfig c;
      c.server = server;
      c.mode = mode;
      c.workers = 4;
      c.cpus = 4;
      c.seed = Shift(1789, seed);
      c.active.seed = Shift(17, seed);
      c.inactive.seed = Shift(23, seed);
      c.warmup = Millis(500);
      c.drain = Seconds(1);
      c.active.request_rate = 4500;
      c.active.duration = kSmpWindow;
      c.active.poisson_arrivals = false;  // see kSmpWindow
      c.inactive.connections = 501;
      c.net.bandwidth_bps = 1e9;
      legs.push_back({scio::ServerKindName(server) + "/" + scio::ListenerModeName(mode), c});
    }
  }
  return legs;
}

// bench_million_idle's six cores at its 100k point.
const ServerKind kIdleServers[] = {ServerKind::kThttpdPoll,  ServerKind::kThttpdDevPoll,
                                   ServerKind::kPhhttpd,     ServerKind::kHybrid,
                                   ServerKind::kThttpdEpoll, ServerKind::kPhhttpdKqueue};
constexpr size_t kIdlePopulation = 100'000;
constexpr SimDuration kIdleWindow = Seconds(10);
// A light seeded probe load through the idle window, so the modelled
// request metrics exist here too: >= kMinConnSamples per responsive core
// (the periodic sweep over 100k connections makes some probes time out).
constexpr double kProbeRate = 400;
constexpr size_t kConnectBatch = 2048;
constexpr SimDuration kBatchGap = Millis(10);

// --- result reduction ---------------------------------------------------------

template <typename Result>
void FillRequests(const Result& r, LegOutcome* leg) {
  leg->attempts = r.attempts;
  leg->successes = r.successes;
  leg->errors = r.errors;
  leg->pending = r.pending;
  leg->reply_avg = r.reply_avg;
  leg->p50_ms = r.median_conn_ms;
  leg->p90_ms = r.p90_conn_ms;
  leg->samples = r.successes;  // connection times are taken from successes
  leg->busy = r.busy_time;
  leg->utilization = r.cpu_utilization;
  leg->attribution = r.attribution;
  leg->kernel = r.kernel_stats;
  if (r.attribution.Sum() != r.busy_time) {
    leg->Fail("attribution sum != busy time");
  }
  if (r.successes + r.errors + r.pending != r.attempts) {
    leg->Fail("successes + errors + pending != attempts");
  }
}

std::string RequestSignature(const LegOutcome& leg) {
  std::ostringstream out;
  out.precision(17);
  out << leg.attempts << '|' << leg.successes << '|' << leg.errors << '|' << leg.pending << '|'
      << leg.reply_avg << '|' << leg.p50_ms << '|' << leg.p90_ms << '|' << leg.busy << '|'
      << leg.utilization << '|' << leg.attribution.Signature() << '|';
  for (const auto& [row, value] : leg.kernel.ToRows()) {
    out << value << ',';
  }
  return out.str();
}

std::string Fixed(double v, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << v;
  return out.str();
}

// The row bench_fig15_successors writes for this result.
std::string Fig15Row(ServerKind server, const BenchmarkResult& r) {
  std::string row = scio::ServerKindName(server) + "," + std::to_string(r.inactive);
  for (double v : {r.target_rate, r.reply_avg, r.reply_min, r.reply_max, r.reply_stddev,
                   r.error_pct, r.median_conn_ms, r.p90_conn_ms}) {
    row += "," + Fixed(v, 1);
  }
  for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
    row += "," + Fixed(scio::ToMillis(r.attribution[static_cast<ChargeCat>(i)]), 3);
  }
  return row;
}

LegOutcome RunSingle(const SingleLeg& spec, const BatchOptions& options, int leg_id) {
  LegOutcome leg;
  leg.name = spec.name;
  BenchmarkRunConfig config = spec.config;
  std::unique_ptr<scio::FlightRecorder> recorder;
  if (options.spans != nullptr) {
    recorder = std::make_unique<scio::FlightRecorder>();
    config.recorder = recorder.get();
  }
  BenchmarkResult r;
  {
    ScopedSpan span(options.spans, "RunBenchmark:" + spec.name, leg_id);
    const OsUsage before = SampleUsage();
    r = scio::RunBenchmark(config);
    leg.cost = SampleUsage() - before;
  }
  if (recorder != nullptr) {
    leg.recorder_events = recorder->total_recorded();
  }
  if (!r.setup_ok) {
    leg.Fail("server setup failed");
    return leg;
  }
  FillRequests(r, &leg);
  leg.population = static_cast<uint64_t>(config.inactive.connections);
  leg.transport = r.transport_stats;
  leg.packets_lost = r.fault_stats.packets_lost;
  leg.loop_iterations = r.server_stats.loop_iterations;
  std::ostringstream sig;
  sig.precision(17);
  sig << RequestSignature(leg) << '|' << r.transport_stats.Signature() << '|'
      << leg.packets_lost << '|' << leg.loop_iterations << '|';
  for (double rate : r.reply_series) {
    sig << rate << ',';
  }
  leg.signature = sig.str();
  leg.fig15_row = Fig15Row(config.server, r);
  return leg;
}

scio::SimDuration CpuBusySum(const SmpBenchmarkResult& r) {
  SimDuration sum = 0;
  for (SimDuration d : r.cpu_busy) {
    sum += d;
  }
  return sum;
}

LegOutcome RunSmp(const SmpLeg& spec, const BatchOptions& options, int leg_id,
                  SimDuration outside_workers) {
  LegOutcome leg;
  leg.name = spec.name;
  leg.smp = true;
  SmpBenchmarkResult r;
  {
    ScopedSpan span(options.spans, "RunSmpBenchmark:" + spec.name, leg_id);
    const OsUsage before = SampleUsage();
    r = scio::RunSmpBenchmark(spec.config);
    leg.cost = SampleUsage() - before;
  }
  if (!r.setup_ok) {
    leg.Fail("server setup failed");
    return leg;
  }
  FillRequests(r, &leg);
  leg.population = static_cast<uint64_t>(spec.config.inactive.connections);
  leg.accepted = r.total_accepted;
  leg.syn_wakeups = r.listener_syn_wakeups;
  for (const scio::ServerStats& s : r.worker_stats) {
    leg.loop_iterations += s.loop_iterations;
  }
  if (r.busy_time - CpuBusySum(r) != outside_workers) {
    leg.Fail("per-CPU busy sum != busy time under workers");
  }
  const auto [lo, hi] = std::minmax_element(r.cpu_busy.begin(), r.cpu_busy.end());
  if (lo != r.cpu_busy.end() && *lo > 0) {
    leg.cpu_busy_imbalance = static_cast<double>(*hi) / static_cast<double>(*lo);
  }
  leg.signature = r.signature + "|" + RequestSignature(leg);
  return leg;
}

// --- idle_100k ------------------------------------------------------------------

// Connects `target` silent clients in self-paced batches: the next batch
// launches only once the server has accepted every member of the previous
// one, so the ramp adapts to each core's speed without overflowing the
// accept backlog, and replays exactly.
class IdleFleet {
 public:
  IdleFleet(scio::NetStack* net, std::shared_ptr<scio::SimListener> listener,
            const scio::ServerStats* stats, size_t target)
      : net_(net), listener_(std::move(listener)), stats_(stats), target_(target) {
    members_.reserve(target);
  }

  void Start() { LaunchBatch(); }
  size_t refused() const { return refused_; }
  bool done() const { return launched_ >= target_ && pending_ == 0 && Drained(); }

  void Shutdown() {
    for (auto& socket : members_) {
      socket->Close();
    }
    members_.clear();
  }

 private:
  void LaunchBatch() {
    const size_t count = std::min(kConnectBatch, target_ - launched_);
    launched_ += count;
    pending_ += count;
    for (size_t i = 0; i < count; ++i) {
      std::shared_ptr<scio::SimSocket> socket = net_->Connect(listener_);
      if (socket == nullptr) {
        ++refused_;
        --pending_;
        continue;
      }
      socket->on_connected = [this] { Resolved(false); };
      socket->on_refused = [this] { Resolved(true); };
      members_.push_back(std::move(socket));
    }
    MaybeScheduleNext();
  }

  void Resolved(bool refused) {
    refused_ += refused ? 1 : 0;
    --pending_;
    MaybeScheduleNext();
  }

  void MaybeScheduleNext() {
    if (pending_ == 0 && launched_ < target_) {
      ScheduleDrainCheck();
    }
  }

  bool Drained() const { return stats_->connections_accepted >= launched_ - refused_; }

  void ScheduleDrainCheck() {
    net_->kernel()->sim().ScheduleAfter(kBatchGap, [this] {
      if (Drained()) {
        LaunchBatch();
      } else {
        ScheduleDrainCheck();
      }
    });
  }

  scio::NetStack* net_;
  std::shared_ptr<scio::SimListener> listener_;
  const scio::ServerStats* stats_;
  size_t target_;
  std::vector<std::shared_ptr<scio::SimSocket>> members_;
  size_t launched_ = 0;
  size_t pending_ = 0;
  size_t refused_ = 0;
};

std::unique_ptr<scio::HttpServerBase> MakeIdleServer(ServerKind kind, scio::Sys* sys,
                                                     const scio::StaticContent* content,
                                                     const scio::ServerConfig& config) {
  std::unique_ptr<scio::HttpServerBase> server;
  bool ok = false;
  switch (kind) {
    case ServerKind::kThttpdPoll:
      server = std::make_unique<scio::ThttpdPoll>(sys, content, config, scio::PollSyscallOptions{});
      ok = server->Setup() >= 0;
      break;
    case ServerKind::kThttpdDevPoll: {
      auto s = std::make_unique<scio::ThttpdDevPoll>(sys, content, config,
                                                     scio::ThttpdDevPollConfig{});
      ok = s->Setup() >= 0 && s->SetupDevPoll() >= 0;
      server = std::move(s);
      break;
    }
    case ServerKind::kPhhttpd: {
      auto s = std::make_unique<scio::Phhttpd>(sys, content, config, scio::PhhttpdConfig{});
      ok = s->Setup() >= 0;
      if (ok) {
        s->SetupSignals();
      }
      server = std::move(s);
      break;
    }
    case ServerKind::kHybrid: {
      auto s = std::make_unique<scio::HybridServer>(sys, content, config,
                                                    scio::ThttpdDevPollConfig{},
                                                    scio::HybridServerConfig{});
      ok = s->Setup() >= 0 && s->SetupDevPoll() >= 0;
      if (ok) {
        s->SetupHybrid();
      }
      server = std::move(s);
      break;
    }
    case ServerKind::kThttpdEpoll:
    case ServerKind::kThttpdEpollEt: {
      scio::ThttpdEpollConfig ep;
      ep.edge_triggered = kind == ServerKind::kThttpdEpollEt;
      auto s = std::make_unique<scio::ThttpdEpoll>(sys, content, config, ep);
      ok = s->Setup() >= 0 && s->SetupEpoll() >= 0;
      server = std::move(s);
      break;
    }
    case ServerKind::kPhhttpdKqueue: {
      auto s = std::make_unique<scio::PhhttpdKqueue>(sys, content, config,
                                                     scio::PhhttpdKqueueConfig{});
      ok = s->Setup() >= 0 && s->SetupKqueue() >= 0;
      server = std::move(s);
      break;
    }
  }
  return ok ? std::move(server) : nullptr;
}

// Ramp `population` silent connections up (set-up), then hold them through
// the idle window under the probe load (measured).
LegOutcome RunIdle(ServerKind kind, size_t population, const BatchOptions& options,
                   int leg_id) {
  LegOutcome leg;
  leg.name = scio::ServerKindName(kind);
  leg.idle = true;
  ScopedSpan leg_span(options.spans, "idle:" + leg.name, leg_id);

  // Declared first: the recorder must outlive the kernel that writes to it.
  std::unique_ptr<scio::FlightRecorder> recorder;
  if (options.spans != nullptr) {
    recorder = std::make_unique<scio::FlightRecorder>();
  }
  scio::Simulator sim;
  scio::SimKernel kernel(&sim);
  kernel.set_recorder(recorder.get());
  scio::NetConfig net_config;
  net_config.client_port_count = static_cast<int>(population) + 8192;
  scio::NetStack net(&kernel, net_config);
  // Headroom so the fd-pressure ladder never engages.
  const int max_fds = static_cast<int>(population + population / 2 + 64);
  scio::Process& proc = kernel.CreateProcess("server", max_fds);
  scio::Sys sys(&kernel, &proc, &net);
  scio::StaticContent content;
  content.AddDocument("/index.html", 6 * 1024);
  scio::ServerConfig server_config;
  server_config.listen_backlog = static_cast<int>(kConnectBatch) * 2;
  server_config.syn_backlog.max_half_open = static_cast<int>(kConnectBatch) * 2;
  server_config.idle_timeout = Seconds(1000000);  // the fleet is idle by design

  std::unique_ptr<scio::HttpServerBase> server =
      MakeIdleServer(kind, &sys, &content, server_config);
  if (server == nullptr) {
    leg.Fail("server setup failed");
    return leg;
  }
  auto listener = sys.listener(server->listener_fd());
  IdleFleet fleet(&net, listener, &server->stats(), population);
  {
    ScopedSpan span(options.spans, "ramp:" + leg.name, leg_id);
    const OsUsage before = SampleUsage();
    fleet.Start();
    const scio::SimTime ramp_cap = Seconds(100000);
    while (!fleet.done() && kernel.now() < ramp_cap && !kernel.stopped()) {
      server->Run(kernel.now() + Seconds(1));
    }
    leg.setup_s = (SampleUsage() - before).wall_s;
  }
  leg.open_conns = server->open_connections();
  leg.population = leg.open_conns;
  leg.mem = kernel.mem();
  if (leg.open_conns != population || fleet.refused() != 0) {
    leg.Fail("idle population not established");
  }
  if (!leg.mem.Consistent()) {
    leg.Fail("memory ledger sum != total");
  }
  const uint64_t conn_bytes = leg.mem[scio::MemSys::kFdTable] + leg.mem[scio::MemSys::kConns] +
                              leg.mem[scio::MemSys::kInterests] +
                              leg.mem[scio::MemSys::kTransport];
  if (leg.open_conns == 0 ||
      static_cast<double>(conn_bytes) / static_cast<double>(leg.open_conns) > kBytesPerConnGate) {
    leg.Fail("bytes per connection above gate");
  }

  scio::ActiveWorkload probe;
  probe.request_rate = kProbeRate;
  probe.duration = kIdleWindow;
  probe.poisson_arrivals = false;  // a fixed probe count, seeded jitter
  probe.seed = options.seed;
  scio::HttperfGenerator generator(&net, listener, probe);
  const SimDuration busy_before = kernel.busy_time();
  const scio::TimeAttribution attr_before = kernel.attribution();
  const uint64_t loops_before = server->stats().loop_iterations;
  {
    ScopedSpan span(options.spans, "window:" + leg.name, leg_id);
    const OsUsage before = SampleUsage();
    const scio::SimTime start = kernel.now();
    generator.Start(start);
    server->Run(start + kIdleWindow);
    leg.cost = SampleUsage() - before;
  }
  scio::PercentileTracker conn_times;
  for (const scio::ConnRecord& record : generator.records()) {
    ++leg.attempts;
    switch (record.outcome) {
      case scio::ConnOutcome::kOk:
        ++leg.successes;
        conn_times.Add(scio::ToMillis(record.ConnTime()));
        break;
      case scio::ConnOutcome::kPending:
        ++leg.pending;
        break;
      default:
        ++leg.errors;
        break;
    }
  }
  leg.samples = leg.successes;
  leg.reply_avg = static_cast<double>(leg.successes) / scio::ToSeconds(kIdleWindow);
  leg.p50_ms = conn_times.Median();
  leg.p90_ms = conn_times.Percentile(90.0);
  leg.busy = kernel.busy_time() - busy_before;
  leg.utilization = static_cast<double>(leg.busy) / static_cast<double>(kIdleWindow);
  for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
    const auto cat = static_cast<ChargeCat>(i);
    leg.attribution.Add(cat, kernel.attribution()[cat] - attr_before[cat]);
  }
  if (kernel.attribution().Sum() != kernel.busy_time()) {
    leg.Fail("attribution sum != busy time");
  }
  leg.loop_iterations = server->stats().loop_iterations - loops_before;
  leg.kernel = kernel.stats();
  if (recorder != nullptr) {
    leg.recorder_events = recorder->total_recorded();
  }
  leg.signature = RequestSignature(leg) + "|" + leg.mem.Signature() + "|" +
                  std::to_string(leg.open_conns) + "|" + std::to_string(leg.loop_iterations);

  fleet.Shutdown();
  kernel.RequestStop();
  sim.DiscardPending();  // pending events hold sockets; drop them while the stack lives
  return leg;
}

enum class Kind { kSingle, kSmp, kIdle };

Kind KindOf(const std::string& workload) {
  if (workload == "smp_4cpu") {
    return Kind::kSmp;
  }
  if (workload == "idle_100k") {
    return Kind::kIdle;
  }
  return Kind::kSingle;
}

std::vector<SingleLeg> SingleLegs(const std::string& workload, uint64_t seed) {
  return workload == "paper_idle501" ? PaperIdle501Legs(seed) : TransportLossyLegs(seed);
}

// The "server,load,rate" prefix that keys a fig15 CSV row.
std::string RowKey(const std::string& row) {
  size_t cut = row.find(',');
  for (int i = 0; i < 2 && cut != std::string::npos; ++i) {
    cut = row.find(',', cut + 1);
  }
  return row.substr(0, cut);
}

void TickReference(const BatchOptions& options) {
  if (options.reference != nullptr) {
    options.reference->Tick();
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_idle501", "smp_4cpu",
                                                  "transport_lossy", "idle_100k"};
  return kNames;
}

bool UsesReferenceSpeed(const std::string& workload) { return KindOf(workload) != Kind::kSmp; }

SetupPass RunSetupPass(const std::string& workload, const BatchOptions& options) {
  SetupPass pass;
  const OsUsage before = SampleUsage();
  switch (KindOf(workload)) {
    case Kind::kSingle:
      for (SingleLeg& leg : SingleLegs(workload, options.seed)) {
        ScopedSpan span(options.spans, "setup:" + leg.name);
        leg.config.active.duration = 0;
        (void)scio::RunBenchmark(leg.config);
      }
      break;
    case Kind::kSmp:
      for (SmpLeg& leg : Smp4CpuLegs(options.seed)) {
        ScopedSpan span(options.spans, "setup:" + leg.name);
        leg.config.active.duration = 0;
        const SmpBenchmarkResult r = scio::RunSmpBenchmark(leg.config);
        pass.outside_workers.push_back(r.busy_time - CpuBusySum(r));
      }
      break;
    case Kind::kIdle:
      return pass;
  }
  pass.wall_s = (SampleUsage() - before).wall_s;
  return pass;
}

std::vector<LegOutcome> RunIdleCores(size_t population, const BatchOptions& options) {
  std::vector<LegOutcome> legs;
  int leg_id = options.first_leg_id;
  for (ServerKind kind : kIdleServers) {
    TickReference(options);
    legs.push_back(RunIdle(kind, population, options, leg_id++));
  }
  return legs;
}

std::vector<LegOutcome> RunBatch(const std::string& workload, const BatchOptions& options,
                                 const SetupPass& setup) {
  std::vector<LegOutcome> legs;
  int leg_id = options.first_leg_id;
  switch (KindOf(workload)) {
    case Kind::kSingle:
      for (const SingleLeg& leg : SingleLegs(workload, options.seed)) {
        TickReference(options);
        legs.push_back(RunSingle(leg, options, leg_id++));
      }
      break;
    case Kind::kSmp: {
      const std::vector<SmpLeg> specs = Smp4CpuLegs(options.seed);
      for (size_t i = 0; i < specs.size(); ++i) {
        const SimDuration outside =
            i < setup.outside_workers.size() ? setup.outside_workers[i] : -1;
        TickReference(options);
        legs.push_back(RunSmp(specs[i], options, leg_id++, outside));
      }
      break;
    }
    case Kind::kIdle:
      legs = RunIdleCores(kIdlePopulation, options);
      break;
  }
  return legs;
}

int ApplyGoldenCheck(const std::string& workload, uint64_t seed, const std::string& csv_path,
                     std::vector<LegOutcome>* legs) {
  if (workload != "paper_idle501" || seed != kDefaultSeed) {
    return 0;
  }
  std::map<std::string, std::string> golden;
  std::ifstream in(csv_path);
  std::string line;
  while (std::getline(in, line)) {
    if (RowKey(line).find(",501,") != std::string::npos) {
      golden[RowKey(line)] = line;
    }
  }
  int mismatches = 0;
  for (LegOutcome& leg : *legs) {
    const auto it = golden.find(RowKey(leg.fig15_row));
    if (it == golden.end() || it->second != leg.fig15_row) {
      leg.Fail("golden: differs from " + csv_path);
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace simbench
