// simbench: run one named workload of the simulator and print its metrics.
//
// Usage: simbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--golden CSV] [--trace-out FILE]
//
// --trace 0: batches of the workload's legs (each batch after a set-up pass)
//   run back to back until S seconds have passed, at least two of them so
//   every batch can be checked against the first. Real end-to-end metrics
//   are medians over batches, at the reference host speed (reference.h)
//   where the workload uses it; modelled ones must be identical in every
//   batch and are read off the first.
// --trace 1: untraced and traced batches alternate for S seconds, then the
//   layer drivers run at shapes read off the traced batch. Prints the
//   per-layer metrics and writes every span to the trace file.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; attempted counts legs run, failed the legs that failed a check.
// Exit code 1 when any check failed, 2 on a usage error.

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "simbench/drivers.h"
#include "simbench/simbench.h"
#include "simbench/workloads.h"

namespace simbench {
namespace {

constexpr int kMinBatches = 2;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string golden = "results/fig15_successors.csv";
  std::string trace_out = "simbench-trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--golden") {
      args->golden = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == args->workload;
  }
  return known && argc % 2 == 1 && args->seconds > 0;
}

// Marks legs whose modelled results differ from the first batch's.
void CheckAgainst(const std::vector<LegOutcome>& first, std::vector<LegOutcome>* legs) {
  for (size_t i = 0; i < legs->size(); ++i) {
    if (i >= first.size() || (*legs)[i].signature != first[i].signature) {
      (*legs)[i].Fail("modelled results differ between batches of one seed");
    }
  }
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::vector<LegOutcome>& legs) {
    for (const LegOutcome& leg : legs) {
      ++attempted;
      if (!leg.ok) {
        ++failed;
        std::cout << "CHECK FAILED: " << leg.name << ": " << leg.failure << "\n";
      }
    }
  }
};

OsUsage CostOf(const std::vector<LegOutcome>& legs) {
  OsUsage cost;
  for (const LegOutcome& leg : legs) {
    cost += leg.cost;
  }
  return cost;
}

void PrintLegs(const std::vector<LegOutcome>& legs) {
  const std::streamsize precision = std::cout.precision();
  std::cout << std::left << std::setw(34) << "leg" << std::right << std::setw(10) << "wall_s"
            << std::setw(11) << "replies/s" << std::setw(10) << "p50_ms" << std::setw(10)
            << "p90_ms" << std::setw(9) << "samples" << "  check\n";
  for (const LegOutcome& leg : legs) {
    std::cout << std::left << std::setw(34) << leg.name << std::right << std::fixed
              << std::setprecision(3) << std::setw(10) << leg.cost.wall_s << std::setprecision(1)
              << std::setw(11) << leg.reply_avg << std::setw(10) << leg.p50_ms << std::setw(10)
              << leg.p90_ms << std::setw(9) << leg.samples << "  "
              << (leg.ok ? "ok" : leg.failure) << "\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout.precision(precision);
}

MetricMap EndToEnd(const std::vector<LegOutcome>& first, const std::vector<double>& walls,
                   const std::vector<double>& cpus, const std::vector<double>& setups) {
  MetricMap m;
  m["wall_s"] = {Median(walls), "s"};
  m["cpu_s"] = {Median(cpus), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["setup_s"] = {Median(setups), "s"};
  m["model.reply_rate"] = {MeanReplyRate(first), "1/s"};
  m["model.success_pct"] = {SuccessPct(first), "%"};
  m["model.conn_ms.p50"] = {MeanConnMs(first, false), "ms"};
  m["model.conn_ms.p90"] = {MeanConnMs(first, true), "ms"};
  m["model.cpu_us_per_reply"] = {CpuUsPerReply(first), "us"};
  m["model.busy_pct"] = {BusyPct(first), "%"};
  return m;
}

// Charge categories reported one by one: those holding >= 5% of modelled
// busy time on some workload at the default seed.
constexpr scio::ChargeCat kReportedCats[] = {
    scio::ChargeCat::kSyscallEntry, scio::ChargeCat::kSendBytes,   scio::ChargeCat::kDriverPoll,
    scio::ChargeCat::kDevpollScan,  scio::ChargeCat::kHttpParse,   scio::ChargeCat::kHttpRespond,
    scio::ChargeCat::kTimerSweep,
};
constexpr const char* kModules[] = {"kernel", "core", "net", "http", "servers", "smp", "transport"};
constexpr scio::MemSys kIdleMem[] = {scio::MemSys::kFdTable, scio::MemSys::kConns,
                                     scio::MemSys::kInterests, scio::MemSys::kTimers,
                                     scio::MemSys::kBuffers, scio::MemSys::kTransport};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Connections of the storage-plane driver on workloads without idle legs.
constexpr size_t kStorageDriverConns = 4096;

// MemLedger bytes per open connection at the idle plateau, by subsystem,
// mean over the idle legs.
void AddStorageMetrics(const std::vector<LegOutcome>& idle_legs, MetricMap* m) {
  for (scio::MemSys sys : kIdleMem) {
    double sum = 0;
    for (const LegOutcome& leg : idle_legs) {
      sum += Ratio(static_cast<double>(leg.mem[sys]), static_cast<double>(leg.open_conns));
    }
    (*m)[std::string("kernel.bytes_per_conn.") + scio::MemSysName(sys)] = {
        Ratio(sum, static_cast<double>(idle_legs.size())), "B"};
  }
}

MetricMap PerLayer(const std::vector<LegOutcome>& legs, const std::vector<OsUsage>& untraced,
                   const std::vector<double>& traced_walls) {
  MetricMap m;
  const scio::KernelStats k = SumKernelStats(legs);
  auto count = [&m](const std::string& name, double v) { m[name] = {v, "count"}; };
  count("kernel.syscalls", static_cast<double>(k.syscalls));
  count("core.devpoll.interests_scanned", static_cast<double>(k.devpoll_interests_scanned));
  m["core.devpoll.driver_call_ratio"] = {DevPollShape(k).ready_fraction, "ratio"};
  count("core.poll.fds_scanned", static_cast<double>(k.poll_fds_scanned));
  count("core.epoll.events_delivered", static_cast<double>(k.epoll_events_delivered));
  m["core.epoll.spurious_ratio"] = {
      Ratio(static_cast<double>(k.epoll_spurious_ready),
            static_cast<double>(k.epoll_spurious_ready + k.epoll_events_delivered)),
      "ratio"};
  count("core.kq.events_delivered", static_cast<double>(k.kq_events_delivered));
  count("core.rt.signals_delivered", static_cast<double>(k.rt_signals_delivered));
  count("core.rt.queue_overflows", static_cast<double>(k.rt_queue_overflows));
  count("net.packets_delivered", static_cast<double>(k.packets_delivered));

  double lost = 0, sent = 0, retx = 0, acks = 0, rto = 0, tlp = 0, loops = 0, recorded = 0;
  double wakeups = 0, accepted = 0, imbalance = 0, smp_legs = 0;
  scio::TimeAttribution attribution;
  for (const LegOutcome& leg : legs) {
    lost += static_cast<double>(leg.packets_lost);
    sent += static_cast<double>(leg.transport.segments_sent);
    retx += static_cast<double>(leg.transport.segments_retransmitted);
    acks += static_cast<double>(leg.transport.acks_sent);
    rto += static_cast<double>(leg.transport.rto_fires);
    tlp += static_cast<double>(leg.transport.tlp_probes);
    loops += static_cast<double>(leg.loop_iterations);
    recorded += static_cast<double>(leg.recorder_events);
    if (leg.smp) {
      wakeups += static_cast<double>(leg.syn_wakeups);
      accepted += static_cast<double>(leg.accepted);
      imbalance += leg.cpu_busy_imbalance;
      ++smp_legs;
    }
    for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
      const auto cat = static_cast<scio::ChargeCat>(i);
      attribution.Add(cat, leg.attribution[cat]);
    }
  }
  count("fault.packets_lost", lost);
  count("transport.segments_sent", sent);
  m["transport.retransmit_ratio"] = {Ratio(retx, sent), "ratio"};
  count("transport.acks_sent", acks);
  count("transport.rto_fires", rto);
  count("transport.tlp_probes", tlp);

  std::vector<double> user, sys, switches, walls;
  for (const OsUsage& u : untraced) {
    user.push_back(u.user_s);
    sys.push_back(u.sys_s);
    switches.push_back(static_cast<double>(u.ctx_switches));
    walls.push_back(u.wall_s);
  }
  count("smp.os_ctx_switches", Median(switches));
  m["smp.user_cpu_s"] = {Median(user), "s"};
  m["smp.sys_cpu_s"] = {Median(sys), "s"};
  m["smp.wakeups_per_accept"] = {Ratio(wakeups, accepted), "ratio"};
  m["smp.cpu_busy_imbalance"] = {Ratio(imbalance, smp_legs), "ratio"};

  count("servers.loop_iterations", loops);
  m["servers.wall_ns_per_loop"] = {Ratio(Median(walls) * 1e9, loops), "ns"};

  for (const char* module : kModules) {
    scio::SimDuration d = 0;
    for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
      const auto cat = static_cast<scio::ChargeCat>(i);
      d += std::strcmp(ModuleOf(cat), module) == 0 ? attribution[cat] : 0;
    }
    m[std::string("model.cpu_ms.") + module] = {scio::ToMillis(d), "ms"};
  }
  for (scio::ChargeCat cat : kReportedCats) {
    m[std::string("model.cpu_ms.") + scio::ChargeCatName(cat)] = {
        scio::ToMillis(attribution[cat]), "ms"};
  }
  count("model.conn_samples", static_cast<double>(ConnSamples(legs)));
  m["model.error_pct"] = {PooledErrorPct(legs), "%"};
  m["trace.overhead_pct"] = {100.0 * (Ratio(Median(traced_walls), Median(walls)) - 1.0), "%"};
  count("trace.recorder_events", recorded);
  return m;
}

void PrintResult(const MetricMap& metrics, const Tally& tally) {
  for (const auto& [name, metric] : metrics) {
    if (!ValidMetricName(name) || !ValidUnit(metric.unit)) {
      std::cerr << "bad metric name or unit: " << name << " [" << metric.unit << "]\n";
      std::exit(2);
    }
    std::cout << std::left << std::setw(40) << name << " " << FullPrecision(metric.value) << " "
              << metric.unit << "\n";
  }
  const bool correct = tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << FullPrecision(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

double Since(const OsUsage& start) { return (SampleUsage() - start).wall_s; }

int RunUntraced(const Args& args) {
  const OsUsage start = SampleUsage();
  std::vector<LegOutcome> first;
  // Real seconds as read, and the same seconds at the reference host speed
  // (as read on workloads that do not use it: unit_s stays 0).
  const bool use_reference = UsesReferenceSpeed(args.workload);
  std::vector<double> raw_walls, units, walls, cpus, setups;
  Tally tally;
  int leg_id = 0;
  for (int batch = 0; batch < kMinBatches || Since(start) < args.seconds; ++batch) {
    ReferenceClock reference;
    const BatchOptions options{args.seed, nullptr, leg_id,
                               use_reference ? &reference : nullptr};
    const SetupPass setup = RunSetupPass(args.workload, options);
    std::vector<LegOutcome> legs = RunBatch(args.workload, options, setup);
    if (use_reference) {
      reference.Tick();  // after the last leg as well as before each
    }
    leg_id += static_cast<int>(legs.size());
    double idle_setup = 0;
    for (const LegOutcome& leg : legs) {
      idle_setup += leg.setup_s;
    }
    const OsUsage cost = CostOf(legs);
    const double unit_s = reference.unit_s();
    raw_walls.push_back(cost.wall_s);
    units.push_back(unit_s);
    walls.push_back(AtReferenceSpeed(cost.wall_s, unit_s));
    cpus.push_back(AtReferenceSpeed(cost.user_s + cost.sys_s, unit_s));
    setups.push_back(AtReferenceSpeed(setup.wall_s + idle_setup, unit_s));
    if (batch == 0) {
      const int mismatches = ApplyGoldenCheck(args.workload, args.seed, args.golden, &legs);
      if (args.seed == kDefaultSeed && args.workload == "paper_idle501") {
        std::cout << "golden check against " << args.golden << ": " << mismatches
                  << " mismatching rows\n";
      }
      first = legs;
      PrintLegs(first);
    } else {
      CheckAgainst(first, &legs);
    }
    tally.Add(legs);
  }
  std::cout << walls.size()
            << " batches; real wall_s / reference unit ms -> wall_s at reference speed:";
  for (size_t i = 0; i < walls.size(); ++i) {
    std::cout << " " << raw_walls[i] << "/" << units[i] * 1e3 << "->" << walls[i];
  }
  std::cout << "\n";
  PrintResult(EndToEnd(first, walls, cpus, setups), tally);
  return tally.failed == 0 ? 0 : 1;
}

int RunTraced(const Args& args) {
  const OsUsage start = SampleUsage();
  SpanRecorder spans;
  std::vector<LegOutcome> first;
  std::vector<LegOutcome> first_traced;
  std::vector<OsUsage> untraced;
  std::vector<double> traced_walls;
  Tally tally;
  int leg_id = 0;
  for (int batch = 0; batch < 1 || Since(start) < args.seconds; ++batch) {
    const SetupPass setup = RunSetupPass(args.workload, {args.seed, nullptr, leg_id});
    std::vector<LegOutcome> plain = RunBatch(args.workload, {args.seed, nullptr, leg_id}, setup);
    untraced.push_back(CostOf(plain));
    std::vector<LegOutcome> traced;
    {
      ScopedSpan span(&spans, "batch" + std::to_string(batch));
      traced = RunBatch(args.workload, {args.seed, &spans, leg_id}, setup);
    }
    leg_id += static_cast<int>(traced.size());
    traced_walls.push_back(CostOf(traced).wall_s);
    // The recorder is a pure observer: traced legs must match untraced ones.
    if (batch == 0) {
      first = plain;
      PrintLegs(first);
    } else {
      CheckAgainst(first, &plain);
    }
    CheckAgainst(first, &traced);
    tally.Add(plain);
    tally.Add(traced);
    if (batch == 0) {
      first_traced = std::move(traced);
    }
  }
  MetricMap metrics = PerLayer(first_traced, untraced, traced_walls);
  const DriverShapes shapes = ShapesOf(first_traced);
  std::cout << "driver shapes: population " << shapes.population << ", devpoll "
            << shapes.devpoll.per_call << " interests/poll at hinted fraction "
            << shapes.devpoll.ready_fraction << ", poll " << shapes.poll.per_call
            << " fds/call at ready fraction " << shapes.poll.ready_fraction << ", epoll "
            << shapes.epoll_events << " events/wait, kqueue " << shapes.kq_events
            << " events/call, " << shapes.read_bytes << " bytes/read\n";
  {
    ScopedSpan span(&spans, "drivers");
    for (auto& [name, metric] : RunDrivers(shapes, &spans)) {
      metrics[name] = metric;
    }
    // The storage plane is read off idle legs: the workload's own on
    // idle_100k, a small idle fleet on every core elsewhere.
    if (first_traced.front().idle) {
      AddStorageMetrics(first_traced, &metrics);
    } else {
      ScopedSpan driver(&spans, "driver:kernel.bytes_per_conn");
      AddStorageMetrics(RunIdleCores(kStorageDriverConns, {args.seed, nullptr, leg_id}),
                        &metrics);
    }
  }
  if (!spans.WriteChromeTrace(args.trace_out)) {
    std::cout << "CHECK FAILED: cannot write " << args.trace_out << "\n";
    ++tally.failed;
  }
  std::cout << spans.size() << " spans (" << spans.CountNamed("driver:") << " driver calls) in "
            << args.trace_out << "\n";
  PrintResult(metrics, tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  simbench::Args args;
  if (!simbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: simbench --workload {";
    for (const std::string& name : simbench::WorkloadNames()) {
      std::cerr << name << (name == simbench::WorkloadNames().back() ? "" : "|");
    }
    std::cerr << "} --seed N --seconds S --trace 0|1 [--golden CSV] [--trace-out FILE]\n";
    return 2;
  }
  return args.trace ? simbench::RunTraced(args) : simbench::RunUntraced(args);
}
