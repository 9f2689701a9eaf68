// Tests for src/trace: the charge-category taxonomy, the TimeAttribution
// ledger invariant (unit level and as a property over full benchmark runs of
// all four servers, fault schedules included), and the flight recorder's
// ring semantics, exports, and observer transparency.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/kernel/sim_kernel.h"
#include "src/load/benchmark_run.h"
#include "src/trace/charge_category.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/time_attribution.h"

namespace scio {
namespace {

// --- taxonomy ---------------------------------------------------------------------

TEST(ChargeCategoryTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (size_t i = 0; i < kChargeCatCount; ++i) {
    const std::string name = ChargeCatName(static_cast<ChargeCat>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "invalid");
    EXPECT_TRUE(names.insert(name).second) << "duplicate category name " << name;
  }
}

TEST(TimeAttributionTest, RowsCoverEveryCategoryInOrder) {
  TimeAttribution ledger;
  ledger.Add(ChargeCat::kDriverPoll, 42);
  const auto rows = ledger.ToRows();
  ASSERT_EQ(rows.size(), kChargeCatCount);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, ChargeCatName(static_cast<ChargeCat>(i)));
  }
  EXPECT_EQ(ledger[ChargeCat::kDriverPoll], 42);
  EXPECT_EQ(ledger.Sum(), 42);
}

TEST(TimeAttributionTest, SignatureIsStableAndValueSensitive) {
  TimeAttribution a, b;
  a.Add(ChargeCat::kAccept, 7);
  b.Add(ChargeCat::kAccept, 7);
  EXPECT_EQ(a.Signature(), b.Signature());
  EXPECT_TRUE(a == b);
  b.Add(ChargeCat::kClose, 1);
  EXPECT_NE(a.Signature(), b.Signature());
  EXPECT_FALSE(a == b);
}

// --- kernel-level invariant -------------------------------------------------------

TEST(AttributionInvariantTest, MultiItemChargeSumsExactly) {
  Simulator sim;
  SimKernel kernel(&sim);
  kernel.Charge({{ChargeCat::kSyscallEntry, Nanos(700)},
                 {ChargeCat::kReadCopy, Nanos(300)}});
  EXPECT_EQ(kernel.busy_time(), Nanos(1000));
  EXPECT_EQ(kernel.attribution()[ChargeCat::kSyscallEntry], Nanos(700));
  EXPECT_EQ(kernel.attribution()[ChargeCat::kReadCopy], Nanos(300));
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

TEST(AttributionInvariantTest, PaidDebtIsAttributedToItsOwnCategory) {
  Simulator sim;
  SimKernel kernel(&sim);
  kernel.ChargeDebt(Micros(30), ChargeCat::kInterrupt);
  EXPECT_EQ(kernel.attribution()[ChargeCat::kInterrupt], 0)
      << "debt is attributed when paid, not when accrued";
  kernel.Charge(Micros(10), ChargeCat::kOther);
  EXPECT_EQ(kernel.busy_time(), Micros(40));
  EXPECT_EQ(kernel.attribution()[ChargeCat::kInterrupt], Micros(30));
  EXPECT_EQ(kernel.attribution()[ChargeCat::kOther], Micros(10));
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

TEST(AttributionInvariantTest, DebtAbsorbedByIdleIsNeverAttributed) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& proc = kernel.CreateProcess("p");
  kernel.ChargeDebt(Micros(5), ChargeCat::kInterrupt);
  EXPECT_FALSE(kernel.BlockProcess(proc, Micros(100)));  // debt absorbed by idle
  kernel.Charge(Micros(1), ChargeCat::kOther);
  EXPECT_EQ(kernel.busy_time(), Micros(1));
  EXPECT_EQ(kernel.attribution()[ChargeCat::kInterrupt], 0);
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

TEST(AttributionInvariantTest, HoldsUnderFractionalCpuScale) {
  // Scaled(a) + Scaled(b) != Scaled(a+b) in general; the ledger must absorb
  // the rounding remainder rather than drift from busy_time().
  CostModel cost;
  cost.cpu_scale = 0.37;
  Simulator sim;
  SimKernel kernel(&sim, cost);
  for (int i = 0; i < 100; ++i) {
    kernel.Charge({{ChargeCat::kSyscallEntry, Nanos(333)},
                   {ChargeCat::kReadCopy, Nanos(77)},
                   {ChargeCat::kSendBytes, Nanos(1)}});
  }
  EXPECT_GT(kernel.busy_time(), 0);
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

// --- flight recorder --------------------------------------------------------------

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 6; ++i) {
    recorder.Record({Nanos(i), 0, 0, i, 0, TraceEventType::kScan, "scan"});
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().arg0, 2) << "oldest two were overwritten";
  EXPECT_EQ(events.back().arg0, 5);
}

TEST(FlightRecorderTest, PhaseBreakdownBinsByMark) {
  FlightRecorder recorder;
  recorder.MarkPhase("warm", Millis(0));
  recorder.MarkPhase("run", Millis(10));
  recorder.Record({Millis(1), 0, Micros(3), 0, 0, TraceEventType::kSyscall, "read"});
  recorder.Record({Millis(11), 0, Micros(5), 0, 0, TraceEventType::kSyscall, "read"});
  recorder.Record({Millis(12), 0, 0, 8, 2, TraceEventType::kScan, "poll_scan"});
  const Table breakdown = recorder.PhaseBreakdown();
  std::ostringstream out;
  breakdown.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("warm"), std::string::npos);
  EXPECT_NE(csv.find("run"), std::string::npos);
}

TEST(FlightRecorderTest, ChromeTraceIsStructurallyValidJson) {
  FlightRecorder recorder;
  recorder.MarkPhase("run", 0);
  recorder.Record({Micros(1), Micros(2), Micros(1), 3, 0,
                   TraceEventType::kSyscall, "poll"});
  recorder.Record({Micros(4), 0, 0, 1, 1, TraceEventType::kSignal, "rt_queued"});
  std::ostringstream out;
  recorder.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "complete slice";
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "instant";
  EXPECT_NE(json.find("\"poll\""), std::string::npos);
  EXPECT_NE(json.find("\"rt_queued\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // Balanced braces/brackets — cheap structural sanity without a JSON parser.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- whole-run properties ---------------------------------------------------------

BenchmarkRunConfig SmallRun(ServerKind server, uint64_t seed, bool faults) {
  BenchmarkRunConfig config;
  config.server = server;
  config.active.request_rate = 300;
  config.active.duration = Seconds(2);
  config.active.seed = seed;
  config.inactive.connections = 60;
  config.inactive.seed = seed * 31 + 7;
  config.warmup = Seconds(1);
  config.drain = Seconds(1);
  config.rt_queue_max = 64;
  if (faults) {
    config.faults.name = "mixed";
    config.faults.seed = seed;
    config.faults.Add({FaultKind::kRtQueueShrink, Millis(1300), Millis(1700), 1.0, 4});
    config.faults.Add({FaultKind::kEintr, Millis(1400), Millis(1600), 0.3, 0});
    config.faults.Add({FaultKind::kPacketLoss, Millis(1500), Millis(1900), 0.2,
                       static_cast<double>(Millis(3))});
  }
  return config;
}

TEST(AttributionPropertyTest, SumEqualsBusyTimeForAllServersSeedsAndFaults) {
  const ServerKind servers[] = {ServerKind::kThttpdPoll, ServerKind::kThttpdDevPoll,
                                ServerKind::kPhhttpd, ServerKind::kHybrid};
  for (ServerKind server : servers) {
    for (uint64_t seed : {11u, 97u}) {
      for (bool faults : {false, true}) {
        const BenchmarkResult result = RunBenchmark(SmallRun(server, seed, faults));
        ASSERT_TRUE(result.setup_ok);
        EXPECT_GT(result.busy_time, 0);
        EXPECT_EQ(result.attribution.Sum(), result.busy_time)
            << ServerKindName(server) << " seed=" << seed << " faults=" << faults;
      }
    }
  }
}

TEST(AttributionPropertyTest, SameSeedYieldsIdenticalPerCategoryTimes) {
  const ServerKind servers[] = {ServerKind::kThttpdPoll, ServerKind::kThttpdDevPoll,
                                ServerKind::kPhhttpd, ServerKind::kHybrid};
  for (ServerKind server : servers) {
    const BenchmarkResult first = RunBenchmark(SmallRun(server, 23, /*faults=*/true));
    const BenchmarkResult second = RunBenchmark(SmallRun(server, 23, /*faults=*/true));
    ASSERT_TRUE(first.setup_ok);
    EXPECT_TRUE(first.attribution == second.attribution)
        << ServerKindName(server) << ": " << first.attribution.Signature()
        << " vs " << second.attribution.Signature();
    EXPECT_EQ(first.busy_time, second.busy_time);
  }
}

// Inline runs with faults, and 2-worker pools of every kind in every
// listener mode: the recorder sees each run and perturbs none of them.
TEST(AttributionPropertyTest, AttachedRecorderDoesNotPerturbTheRun) {
  std::vector<BenchmarkRunConfig> configs = {
      SmallRun(ServerKind::kThttpdPoll, 5, /*faults=*/true),
      SmallRun(ServerKind::kHybrid, 5, /*faults=*/true)};
  for (ServerKind server :
       {ServerKind::kThttpdPoll, ServerKind::kThttpdDevPoll, ServerKind::kPhhttpd,
        ServerKind::kHybrid, ServerKind::kThttpdEpoll, ServerKind::kThttpdEpollEt,
        ServerKind::kPhhttpdKqueue}) {
    for (ListenerMode mode : {ListenerMode::kSharedWakeAll, ListenerMode::kSharedWakeOne,
                              ListenerMode::kSharded}) {
      BenchmarkRunConfig pool = SmallRun(server, 5, /*faults=*/false);
      pool.workers = 2;
      pool.cpus = 2;
      pool.mode = mode;
      configs.push_back(pool);
    }
  }
  for (BenchmarkRunConfig& config : configs) {
    SCOPED_TRACE(ServerKindName(config.server) + " workers=" + std::to_string(config.workers) +
                 " " + ListenerModeName(config.mode));
    const BenchmarkResult bare = RunBenchmark(config);
    FlightRecorder recorder;
    config.recorder = &recorder;
    const BenchmarkResult traced = RunBenchmark(config);
    ASSERT_TRUE(bare.setup_ok);
    EXPECT_EQ(bare.signature, traced.signature);
    EXPECT_TRUE(bare.attribution == traced.attribution);
    EXPECT_EQ(bare.busy_time, traced.busy_time);
    EXPECT_EQ(bare.kernel_stats.syscalls, traced.kernel_stats.syscalls);
    EXPECT_EQ(bare.successes, traced.successes);
    EXPECT_EQ(bare.reply_series, traced.reply_series);
    if (kFlightRecorderCompiledIn) {
      EXPECT_GT(recorder.total_recorded(), 0u);
      const std::vector<TraceEvent> events = recorder.Snapshot();
      EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.type == TraceEventType::kSyscall;
      })) << "the recorder saw the servers' syscalls, not just the phase marks";
    }
  }
}

TEST(AttributionPropertyTest, HybridForcedShrinkRecoversWithSaneWatermarks) {
  // The queue-shrink fault forces overflow; with the watermark clamp the
  // policy must both leave signal mode during the storm (mode switches
  // happen) and not be pinned in polling by a degenerate high_ == 0.
  BenchmarkRunConfig config = SmallRun(ServerKind::kHybrid, 41, /*faults=*/false);
  config.rt_queue_max = 8;  // low_ truncates to 0; high_ clamps to >= 1
  config.faults.name = "shrink";
  config.faults.seed = 41;
  config.faults.Add({FaultKind::kRtQueueShrink, Millis(1300), Millis(1900), 1.0, 1});
  const BenchmarkResult result = RunBenchmark(config);
  ASSERT_TRUE(result.setup_ok);
  // Overflow is observed at the kernel: at queue_max 8 the load alone drives
  // the policy into polling mode before the shrink window, where recovery is
  // the level-triggered scan rather than a SIGIO dequeue.
  EXPECT_GT(result.kernel_stats.rt_queue_overflows, 0u);
  EXPECT_GT(result.server_stats.mode_switches, 0u);
  EXPECT_TRUE(result.hybrid_in_signal_mode)
      << "policy stuck in polling mode after the shrink window closed";
  EXPECT_EQ(result.attribution.Sum(), result.busy_time);
}

}  // namespace
}  // namespace scio
