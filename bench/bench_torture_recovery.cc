// Torture bench: seeded fault schedules vs every server, measuring whether —
// and how fast — the reply rate comes back after the fault clears.
//
// Each schedule opens a fault window in the middle of the generation
// interval. The pre-fault buckets of the reply-rate series establish a
// baseline; recovery time is the gap between the fault clearing and the
// first bucket back at >= 90% of that baseline. A schedule fails if a server
// never recovers inside the bounded post-fault window. The whole sweep is
// seeded, and a final double-run check proves the fault plane is
// deterministic: identical seed + schedule must reproduce identical metrics.

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"

namespace scio {
namespace {

// Run layout: generation spans [kWarmup, kWarmup + kDuration); reply_series
// bucket i covers [i, i+1) seconds of that window.
constexpr SimDuration kWarmup = Seconds(2);
constexpr SimDuration kDuration = Seconds(10);
constexpr SimDuration kDrain = Seconds(4);
// Fault windows sit mid-generation.
constexpr SimTime kFaultStart = Seconds(5);
constexpr SimTime kFaultEnd = Seconds(8);
// A server must be back at >= kRecoveryFraction of its pre-fault baseline
// within this many buckets of the fault clearing.
constexpr double kRecoveryFraction = 0.9;
constexpr int kRecoveryBoundBuckets = 3;

struct TortureCase {
  std::string name;
  FaultSchedule faults;
  AbusiveWorkload abusive;
  size_t rt_queue_max = kDefaultRtQueueMax;
  SimTime fault_end = kFaultEnd;  // when the regime clears (absolute)
  bool expect_hybrid_signal_mode = false;
};

std::vector<TortureCase> BuildCases() {
  std::vector<TortureCase> cases;

  {
    TortureCase c;
    c.name = "pkt-loss";
    c.faults.name = c.name;
    c.faults.seed = 101;
    c.faults.Add({FaultKind::kPacketLoss, kFaultStart, kFaultEnd, 0.1,
                  static_cast<double>(Millis(150)), LinkDir::kBoth});
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "latency-spike";
    c.faults.name = c.name;
    c.faults.seed = 102;
    c.faults.Add({FaultKind::kLatencySpike, kFaultStart, kFaultEnd, 1.0,
                  static_cast<double>(Millis(50)), LinkDir::kBoth});
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "link-flap";
    c.faults.name = c.name;
    c.faults.seed = 103;
    // 400ms outage: everything in flight is held, then released in order.
    c.faults.Add({FaultKind::kLinkFlap, kFaultStart, kFaultStart + Millis(400),
                  1.0, 0, LinkDir::kBoth});
    c.fault_end = kFaultStart + Millis(400);
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "rt-shrink";
    c.faults.name = c.name;
    c.faults.seed = 104;
    // Queue forced down to 2 entries: any burst overflows, so SIGIO storms
    // the signal servers; the hybrid must ride it out in poll mode and come
    // back once the cap lifts.
    c.faults.Add({FaultKind::kRtQueueShrink, kFaultStart, kFaultEnd, 1.0, 2,
                  LinkDir::kBoth});
    c.expect_hybrid_signal_mode = true;
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "accept-emfile";
    c.faults.name = c.name;
    c.faults.seed = 105;
    c.faults.Add({FaultKind::kAcceptEmfile, kFaultStart, kFaultEnd, 0.8, 0,
                  LinkDir::kBoth});
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "eintr-storm";
    c.faults.name = c.name;
    c.faults.seed = 106;
    c.faults.Add({FaultKind::kEintr, kFaultStart, kFaultEnd, 0.5, 0,
                  LinkDir::kBoth});
    cases.push_back(c);
  }
  {
    TortureCase c;
    c.name = "abusive-clients";
    c.faults.name = c.name;
    c.faults.seed = 107;  // no windows: all pressure comes from the clients
    c.abusive.slowloris_connections = 100;
    c.abusive.abort_churn_rate = 200.0;
    c.abusive.start_at = kFaultStart;
    c.abusive.active_for = kFaultEnd - kFaultStart;
    cases.push_back(c);
  }
  return cases;
}

BenchmarkRunConfig MakeConfig(const TortureCase& torture, ServerKind server) {
  BenchmarkRunConfig config;
  config.server = server;
  config.active.request_rate = 600.0;
  config.active.duration = kDuration;
  config.active.seed = 11;
  config.active.max_retries = 3;  // real clients retry through an outage
  config.inactive.connections = 50;
  config.warmup = kWarmup;
  config.drain = kDrain;
  config.faults = torture.faults;
  config.abusive = torture.abusive;
  config.rt_queue_max = torture.rt_queue_max;
  return config;
}

struct Recovery {
  double baseline = 0;       // mean pre-fault bucket rate
  double fault_min = 0;      // worst bucket while the fault is active
  double recovery_s = -1;    // -1 = never recovered in the bounded window
  bool ok = false;
};

Recovery MeasureRecovery(const std::vector<double>& series, SimTime fault_end) {
  Recovery r;
  const auto fault_start_bucket = static_cast<size_t>((kFaultStart - kWarmup) / Seconds(1));
  // The bucket containing the clear instant still saw faulted time; recovery
  // is judged from the first fully-clean bucket.
  const auto clear_bucket =
      static_cast<size_t>((fault_end - kWarmup + Seconds(1) - 1) / Seconds(1));

  double sum = 0;
  for (size_t i = 0; i < fault_start_bucket && i < series.size(); ++i) {
    sum += series[i];
  }
  r.baseline = fault_start_bucket == 0 ? 0 : sum / static_cast<double>(fault_start_bucket);

  r.fault_min = r.baseline;
  for (size_t i = fault_start_bucket; i < clear_bucket && i < series.size(); ++i) {
    r.fault_min = std::min(r.fault_min, series[i]);
  }

  const size_t bound =
      std::min(series.size(), clear_bucket + static_cast<size_t>(kRecoveryBoundBuckets));
  for (size_t i = clear_bucket; i < bound; ++i) {
    if (series[i] >= kRecoveryFraction * r.baseline) {
      r.recovery_s = static_cast<double>(i - clear_bucket);
      r.ok = true;
      break;
    }
  }
  return r;
}

}  // namespace
}  // namespace scio

int main() {
  using namespace scio;

  const std::vector<ServerKind> servers = {ServerKind::kThttpdPoll,
                                           ServerKind::kThttpdDevPoll,
                                           ServerKind::kPhhttpd, ServerKind::kHybrid};
  int failures = 0;

  std::cout << "=== torture: fault schedules vs recovery time ===\n\n";
  Table table({"schedule", "server", "baseline_rps", "fault_min_rps", "recovery_s",
               "faults_injected", "verdict"});

  for (const TortureCase& torture : BuildCases()) {
    for (ServerKind server : servers) {
      const BenchmarkResult result = RunBenchmark(MakeConfig(torture, server));
      if (!result.setup_ok) {
        table.AddRow({torture.name, ServerKindName(server), "-", "-", "-", "-",
                      "FAIL(setup)"});
        ++failures;
        continue;
      }
      const Recovery recovery = MeasureRecovery(result.reply_series, torture.fault_end);

      uint64_t injected = 0;
      for (const auto& [name, value] : result.fault_stats.ToRows()) {
        injected += value;
      }
      injected += result.abusive_aborts + result.slowloris_reconnects;

      bool ok = recovery.ok;
      std::string verdict = ok ? "PASS" : "FAIL(no-recovery)";
      if (server == ServerKind::kHybrid && torture.expect_hybrid_signal_mode) {
        // The paper's unrealized design: after the overflow storm the hybrid
        // must be back in RT-signal mode, not stranded in poll.
        if (!result.hybrid_in_signal_mode || result.server_stats.overflow_recoveries == 0) {
          ok = false;
          verdict = "FAIL(stuck-in-poll)";
        }
      }
      if (!ok) {
        ++failures;
      }

      std::ostringstream recovery_text;
      recovery_text << (recovery.ok ? std::to_string(static_cast<int>(recovery.recovery_s))
                                    : std::string("never"));
      std::ostringstream baseline_text, fault_min_text;
      baseline_text.precision(1);
      baseline_text << std::fixed << recovery.baseline;
      fault_min_text.precision(1);
      fault_min_text << std::fixed << recovery.fault_min;
      table.AddRow({torture.name, ServerKindName(server), baseline_text.str(),
                    fault_min_text.str(), recovery_text.str(),
                    std::to_string(injected), verdict});
    }
  }
  table.Print(std::cout);
  table.WriteCsvFile("torture_recovery.csv");

  std::cout << "\n=== torture: determinism (same seed + schedule, two runs) ===\n\n";
  {
    const TortureCase repro = BuildCases().front();  // pkt-loss, RNG-heaviest
    for (ServerKind server : servers) {
      const bool identical = RunBenchmark(MakeConfig(repro, server)).signature ==
                             RunBenchmark(MakeConfig(repro, server)).signature;
      std::cout << "  " << ServerKindName(server) << ": "
                << (identical ? "identical" : "DIVERGED") << "\n";
      if (!identical) {
        ++failures;
      }
    }
  }

  std::cout << "\n=== torture: attribution invariant + recorder-as-observer ===\n\n";
  {
    // Under the RNG-heaviest schedule: every charged nanosecond must land in
    // exactly one category, and attaching a flight recorder must not move a
    // single one of them (the recorder is a pure observer).
    const TortureCase repro = BuildCases().front();
    for (ServerKind server : servers) {
      BenchmarkRunConfig cfg = MakeConfig(repro, server);
      const BenchmarkResult bare = RunBenchmark(cfg);
      FlightRecorder recorder;
      cfg.recorder = &recorder;
      const BenchmarkResult traced = RunBenchmark(cfg);
      const bool invariant = bare.attribution.Sum() == bare.busy_time &&
                             traced.attribution.Sum() == traced.busy_time;
      const bool observer = bare.signature == traced.signature;
      std::cout << "  " << ServerKindName(server) << ": invariant "
                << (invariant ? "holds" : "VIOLATED") << ", recorder "
                << (observer ? "transparent" : "PERTURBED RUN") << " ("
                << recorder.total_recorded() << " events)\n";
      if (!invariant || !observer) {
        ++failures;
      }
    }
  }

  std::cout << "\n" << (failures == 0 ? "ALL PASS" : "FAILURES: " + std::to_string(failures))
            << std::endl;
  return failures == 0 ? 0 : 1;
}
