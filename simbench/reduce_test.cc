// The benchmark's reducers on hand-built results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simbench/reference.h"
#include "simbench/simbench.h"

namespace simbench {
namespace {

LegOutcome Leg(uint64_t attempts, uint64_t successes, uint64_t errors, bool ok = true) {
  LegOutcome leg;
  leg.attempts = attempts;
  leg.successes = successes;
  leg.errors = errors;
  leg.pending = attempts - successes - errors;
  leg.samples = successes;
  if (!ok) {
    leg.Fail("test");
  }
  return leg;
}

TEST(ReduceTest, ErrorShareIsPooledNotAveraged) {
  // 10 of 100 failed, and 0 of 300: pooled 2.5%, not the 5% mean of shares.
  const std::vector<LegOutcome> legs = {Leg(100, 90, 10), Leg(300, 300, 0)};
  EXPECT_DOUBLE_EQ(PooledErrorPct(legs), 2.5);
  EXPECT_DOUBLE_EQ(SuccessPct(legs), 97.5);
}

TEST(ReduceTest, FailedLegCountsEveryRequestAsFailed) {
  const std::vector<LegOutcome> legs = {Leg(100, 90, 10), Leg(300, 300, 0, /*ok=*/false)};
  EXPECT_DOUBLE_EQ(PooledErrorPct(legs), 100.0 * 310 / 400);
  EXPECT_DOUBLE_EQ(SuccessPct(legs), 100.0 * 90 / 400);
}

TEST(ReduceTest, NoAttemptsGivesZeroShares) {
  EXPECT_EQ(PooledErrorPct({}), 0.0);
  EXPECT_EQ(SuccessPct({Leg(0, 0, 0)}), 0.0);
}

TEST(ReduceTest, CpuPerReplyDividesPooledBusyByGoodReplies) {
  std::vector<LegOutcome> legs = {Leg(10, 10, 0), Leg(20, 20, 0), Leg(5, 5, 0, false)};
  legs[0].busy = scio::Millis(2);
  legs[1].busy = scio::Millis(1);
  legs[2].busy = scio::Millis(3);
  // 6 ms over the 30 replies of the legs that passed their checks.
  EXPECT_DOUBLE_EQ(CpuUsPerReply(legs), 200.0);
  EXPECT_EQ(CpuUsPerReply({Leg(1, 0, 1)}), 0.0);
}

TEST(ReduceTest, ConnTimesCountOnlyLegsWithEnoughSamples) {
  std::vector<LegOutcome> legs = {Leg(kMinConnSamples, kMinConnSamples, 0),
                                  Leg(kMinConnSamples, kMinConnSamples - 1, 1),
                                  Leg(3000, 3000, 0)};
  legs[0].p50_ms = 2;
  legs[0].p90_ms = 4;
  legs[1].p50_ms = 1000;  // too few samples: ignored
  legs[1].p90_ms = 1000;
  legs[2].p50_ms = 4;
  legs[2].p90_ms = 8;
  EXPECT_DOUBLE_EQ(MeanConnMs(legs, false), 3.0);
  EXPECT_DOUBLE_EQ(MeanConnMs(legs, true), 6.0);
  EXPECT_EQ(ConnSamples(legs), 2 * kMinConnSamples - 1 + 3000);
  EXPECT_EQ(MeanConnMs({legs[1]}, false), 0.0);
}

TEST(ReduceTest, BusyShareAndReplyRateAreMeansOverLegs) {
  std::vector<LegOutcome> legs = {Leg(1, 1, 0), Leg(1, 1, 0)};
  legs[0].utilization = 0.25;
  legs[1].utilization = 0.75;
  legs[0].reply_avg = 100;
  legs[1].reply_avg = 300;
  EXPECT_DOUBLE_EQ(BusyPct(legs), 50.0);
  EXPECT_DOUBLE_EQ(MeanReplyRate(legs), 200.0);
}

TEST(ReduceTest, DevPollShapeIsInterestsPerPollAndHintedFraction) {
  scio::KernelStats k;
  k.devpoll_polls = 10;
  k.devpoll_interests_scanned = 5010;
  k.devpoll_driver_calls = 501;
  const ScanShape shape = DevPollShape(k);
  EXPECT_DOUBLE_EQ(shape.per_call, 501.0);
  EXPECT_DOUBLE_EQ(shape.ready_fraction, 0.1);
  const ScanShape none = DevPollShape(scio::KernelStats{});
  EXPECT_EQ(none.per_call, 0.0);
  EXPECT_EQ(none.ready_fraction, 0.0);
}

TEST(ReduceTest, PollShapeIsFdsPerCallAndReadyFraction) {
  scio::KernelStats k;
  k.poll_calls = 4;
  k.poll_fds_scanned = 2008;
  k.poll_results_copied = 502;
  const ScanShape shape = PollShape(k);
  EXPECT_DOUBLE_EQ(shape.per_call, 502.0);
  EXPECT_DOUBLE_EQ(shape.ready_fraction, 0.25);
  EXPECT_DOUBLE_EQ(EventsPerCall(30, 10), 3.0);
  EXPECT_EQ(EventsPerCall(30, 0), 0.0);
}

TEST(ReduceTest, KernelStatsSumFieldByField) {
  std::vector<LegOutcome> legs(2);
  legs[0].kernel.syscalls = 3;
  legs[1].kernel.syscalls = 4;
  legs[1].kernel.smp_context_switches = 5;
  const scio::KernelStats sum = SumKernelStats(legs);
  EXPECT_EQ(sum.syscalls, 7u);
  EXPECT_EQ(sum.smp_context_switches, 5u);
}

TEST(ReduceTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(ReduceTest, MetricNameGrammar) {
  for (const char* good : {"wall_s", "model.conn_ms.p50", "kernel.bytes_per_conn.fd_table",
                           "9lives", "a-b"}) {
    EXPECT_TRUE(ValidMetricName(good)) << good;
  }
  for (const std::string& bad : std::vector<std::string>{"", ".hidden", "_x", "has space",
                                                         "semi;colon", std::string(65, 'a')}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  for (const char* good : {"s", "ms", "1/s", "%", "count", "B", "ratio", "us"}) {
    EXPECT_TRUE(ValidUnit(good)) << good;
  }
  for (const std::string& bad : std::vector<std::string>{"", "per second", std::string(17, 's')}) {
    EXPECT_FALSE(ValidUnit(bad)) << bad;
  }
}

TEST(ReduceTest, GeneratedNamesFollowTheGrammar) {
  // Metric names built from the simulator's own taxonomies.
  for (size_t i = 0; i < scio::kChargeCatCount; ++i) {
    const auto cat = static_cast<scio::ChargeCat>(i);
    EXPECT_TRUE(ValidMetricName(std::string("model.cpu_ms.") + scio::ChargeCatName(cat)));
    EXPECT_TRUE(ValidMetricName(std::string("model.cpu_ms.") + ModuleOf(cat)));
  }
  for (size_t i = 0; i < scio::kMemSysCount; ++i) {
    EXPECT_TRUE(ValidMetricName(std::string("kernel.bytes_per_conn.") +
                                scio::MemSysName(static_cast<scio::MemSys>(i))));
  }
}

TEST(ReduceTest, FullPrecisionRoundTrips) {
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(FullPrecision(v)), v);
}

TEST(ReduceTest, ReferenceSpeedScalesByNominalOverMeasuredUnit) {
  // A host running the unit at half speed doubled the real time.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.0, 2 * kReferenceUnitNominalS), 1.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.0, kReferenceUnitNominalS), 2.0);
  // No unit measured: the real time as read.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.0, 0), 2.0);
}

TEST(ReduceTest, ReferenceClockAveragesItsUnits) {
  ReferenceClock clock;
  EXPECT_EQ(clock.unit_s(), 0);
  clock.Tick();
  clock.Tick();
  EXPECT_EQ(clock.units(), 2);
  EXPECT_GT(clock.unit_s(), 0);
}

}  // namespace
}  // namespace simbench
