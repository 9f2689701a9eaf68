// Tests for the load generators and the end-to-end benchmark harness,
// including exact determinism of full runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <regex>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/load/abusive_clients.h"
#include "src/load/benchmark_run.h"
#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

class LoadTest : public SimWorldTest {};

TEST_F(LoadTest, GeneratorHitsTargetCountDeterministic) {
  ActiveWorkload workload;
  workload.request_rate = 1000;
  workload.duration = Seconds(2);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  EXPECT_EQ(generator.attempts(), 2000u);
}

TEST_F(LoadTest, PoissonArrivalCountConcentratesAroundTarget) {
  ActiveWorkload workload;
  workload.request_rate = 1000;
  workload.duration = Seconds(4);
  workload.poisson_arrivals = true;
  workload.seed = 5;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  EXPECT_NEAR(static_cast<double>(generator.attempts()), 4000.0, 4 * 63.0)
      << "within ~4 sigma of rate*duration";
}

TEST_F(LoadTest, RefusedConnectionsRecorded) {
  ASSERT_EQ(sys_.Close(listen_fd_), 0);  // every SYN refused
  ActiveWorkload workload;
  workload.request_rate = 100;
  workload.duration = Millis(100);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(2));
  for (const ConnRecord& record : generator.records()) {
    EXPECT_EQ(record.outcome, ConnOutcome::kRefused);
    EXPECT_TRUE(record.IsError());
  }
}

TEST_F(LoadTest, UnservedClientsTimeOut) {
  // Nobody accepts: connections establish (backlog) but never get replies.
  ActiveWorkload workload;
  workload.request_rate = 50;
  workload.duration = Millis(100);
  workload.client_timeout = Millis(200);
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&net_, listener_, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(2));
  int timeouts = 0;
  for (const ConnRecord& record : generator.records()) {
    timeouts += record.outcome == ConnOutcome::kTimeout ? 1 : 0;
  }
  EXPECT_EQ(timeouts, static_cast<int>(generator.attempts()));
}

TEST_F(LoadTest, PortExhaustionRecordedAsNoPorts) {
  NetConfig tight;
  tight.client_port_count = 5;
  NetStack small_net(&kernel_, tight);
  auto listener = std::make_shared<SimListener>(&kernel_, &small_net, 128);
  ActiveWorkload workload;
  workload.request_rate = 100;
  workload.duration = Millis(200);
  workload.client_timeout = Seconds(30);  // ports stay held
  workload.poisson_arrivals = false;
  HttperfGenerator generator(&small_net, listener, workload);
  generator.Start(0);
  sim_.AdvanceTo(Seconds(1));
  int no_ports = 0;
  for (const ConnRecord& record : generator.records()) {
    no_ports += record.outcome == ConnOutcome::kNoPorts ? 1 : 0;
  }
  EXPECT_EQ(no_ports, static_cast<int>(generator.attempts()) - 5)
      << "only port_count connections can be in flight";
}

TEST_F(LoadTest, InactivePoolReachesTargetPopulation) {
  InactiveWorkload inactive;
  inactive.connections = 10;
  InactivePool pool(&net_, listener_, inactive);
  pool.Start();
  sim_.AdvanceTo(Seconds(2));
  // Accept everything so the pool members establish fully.
  while (sys_.Accept(listen_fd_) >= 0) {
  }
  sim_.AdvanceTo(Seconds(3));
  EXPECT_EQ(pool.connected_now(), 10);
  pool.Shutdown();
  EXPECT_EQ(pool.connected_now(), 0);
}

// Regression: a slowloris member whose connection the server reaps while the
// fleet is mid-teardown must still release its client port. The churn loop
// (accept + immediate close, the pressure-reap pattern) used to race the
// fleet's reconnect callbacks and leak ports into in_use_ forever.
TEST_F(LoadTest, SlowlorisTeardownReleasesPortsUnderPressure) {
  AbusiveWorkload abusive;
  abusive.slowloris_connections = 8;
  abusive.slowloris_write_interval = Millis(50);
  abusive.slowloris_reconnect_delay = Millis(50);
  AbusiveFleet fleet(&net_, listener_, abusive);
  fleet.Start(0, Millis(800));
  // Server under fd pressure: reap (close) every connection the moment it is
  // accepted, forcing each member through its reconnect path over and over.
  for (int step = 0; step < 100; ++step) {
    RunFor(Millis(10));
    int fd;
    while ((fd = sys_.Accept(listen_fd_)) >= 0) {
      EXPECT_EQ(sys_.Close(fd), 0);
    }
  }
  fleet.Shutdown();
  sim_.RunAll();
  EXPECT_GT(fleet.slowloris_reconnects(), 0u) << "the churn actually happened";
  EXPECT_EQ(net_.ports().in_use(), 0) << "every reaped member gave its port back";
}

// --- full harness ------------------------------------------------------------------

TEST(BenchmarkRunTest, SmallRunProducesSaneNumbers) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 300;
  config.active.duration = Seconds(2);
  config.inactive.connections = 10;
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  const BenchmarkResult result = RunBenchmark(config);
  EXPECT_GT(result.attempts, 500u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_NEAR(result.reply_avg, 300.0, 60.0);
  EXPECT_GT(result.median_conn_ms, 0.0);
  EXPECT_LT(result.median_conn_ms, 50.0);
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LT(result.cpu_utilization, 1.0);
}

// Two runs of the same seed must carry the same RunSignature, every counter
// of every plane — the event engine's replay contract (same-time events in
// schedule order), for every server kind.
class DeterminismTest : public ::testing::TestWithParam<ServerKind> {};

TEST_P(DeterminismTest, IdenticalSeedsIdenticalResults) {
  BenchmarkRunConfig config;
  config.server = GetParam();
  config.active.request_rate = 400;
  config.active.duration = Seconds(1);
  config.inactive.connections = 20;
  config.warmup = Millis(500);
  config.drain = Millis(500);
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.kernel_stats.syscalls, b.kernel_stats.syscalls);
  EXPECT_EQ(a.kernel_stats.poll_driver_calls, b.kernel_stats.poll_driver_calls);
  EXPECT_EQ(a.kernel_stats.devpoll_driver_calls, b.kernel_stats.devpoll_driver_calls);
  EXPECT_DOUBLE_EQ(a.median_conn_ms, b.median_conn_ms);
  EXPECT_EQ(a.signature, b.signature);
}

INSTANTIATE_TEST_SUITE_P(AllServers, DeterminismTest,
                         ::testing::Values(ServerKind::kThttpdPoll,
                                           ServerKind::kThttpdDevPoll,
                                           ServerKind::kPhhttpd, ServerKind::kHybrid,
                                           ServerKind::kThttpdEpoll,
                                           ServerKind::kThttpdEpollEt,
                                           ServerKind::kPhhttpdKqueue));

// Retry backoff jitter: a config that forces refusals (accept-EMFILE window
// fills the backlog, later SYNs bounce) so clients actually walk the
// backoff path.
BenchmarkRunConfig RetryStormConfig() {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 600;
  config.active.duration = Seconds(2);
  config.active.max_retries = 3;
  config.inactive.connections = 0;
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  config.faults.Add({FaultKind::kAcceptEmfile, Millis(700), Millis(1700), 1.0, 0,
                     LinkDir::kBoth});
  return config;
}

TEST(BenchmarkRunTest, RetryJitterDrawsNothingWhenZero) {
  // jitter = 0 (the default) must not consume RNG draws: two runs are
  // byte-identical, the contract that keeps every pre-jitter baseline stable.
  const BenchmarkRunConfig config = RetryStormConfig();
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_GT(a.client_retries, 0u) << "the storm must actually cause retries";
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.signature, b.signature);
}

TEST(BenchmarkRunTest, RetryJitterIsSeededAndDeterministic) {
  BenchmarkRunConfig config = RetryStormConfig();
  config.active.retry_jitter = 0.5;
  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_GT(a.client_retries, 0u);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.signature, b.signature);
  // And the knob is live: a jittered timeline differs from the unjittered one.
  const BenchmarkResult plain = RunBenchmark(RetryStormConfig());
  EXPECT_NE(a.signature, plain.signature);
}

TEST(BenchmarkRunTest, DevPollBeatsStockPollUnderInactiveLoad) {
  // The paper's headline claim, as an executable assertion: with hundreds of
  // inactive connections, /dev/poll spends far less kernel effort than
  // stock poll() and serves with lower latency.
  BenchmarkRunConfig config;
  config.active.request_rate = 600;
  config.active.duration = Seconds(3);
  config.inactive.connections = 251;

  config.server = ServerKind::kThttpdPoll;
  const BenchmarkResult poll_result = RunBenchmark(config);
  config.server = ServerKind::kThttpdDevPoll;
  const BenchmarkResult devpoll_result = RunBenchmark(config);

  EXPECT_LT(devpoll_result.median_conn_ms, poll_result.median_conn_ms / 3.0);
  EXPECT_LT(devpoll_result.kernel_stats.devpoll_driver_calls,
            poll_result.kernel_stats.poll_driver_calls / 10);
  EXPECT_GE(devpoll_result.reply_avg, poll_result.reply_avg * 0.98);
  EXPECT_LE(devpoll_result.error_pct, poll_result.error_pct);
}

TEST(BenchmarkRunTest, ServerKindNamesAreStable) {
  EXPECT_EQ(ServerKindName(ServerKind::kThttpdPoll), "thttpd-poll");
  EXPECT_EQ(ServerKindName(ServerKind::kThttpdDevPoll), "thttpd-devpoll");
  EXPECT_EQ(ServerKindName(ServerKind::kPhhttpd), "phhttpd");
  EXPECT_EQ(ServerKindName(ServerKind::kHybrid), "hybrid");
}

// --- RunSignature coverage -----------------------------------------------------
// RunSignature signs seven stats structs row by row. Each struct is nothing
// but uint64 counters, so its size pins its row count, and a counter added
// without a ToRows() row (or a plane dropped from the signature) fails here.

// Adds one to the `word`-th counter of `stats`.
template <typename Stats>
void Bump(Stats* stats, size_t word) {
  static_assert(std::is_trivially_copyable_v<Stats>);
  char* at = reinterpret_cast<char*>(stats) + word * sizeof(uint64_t);
  uint64_t value;
  std::memcpy(&value, at, sizeof value);
  ++value;
  std::memcpy(at, &value, sizeof value);
}

// Row i of ToRows() must read counter i: number the counters and look.
template <typename Stats>
void ExpectOneRowPerCounter(const char* name) {
  constexpr size_t kWords = sizeof(Stats) / sizeof(uint64_t);
  static_assert(std::is_trivially_copyable_v<Stats>);
  static_assert(kWords * sizeof(uint64_t) == sizeof(Stats));
  uint64_t words[kWords];
  for (size_t i = 0; i < kWords; ++i) {
    words[i] = i + 1;
  }
  Stats stats;
  std::memcpy(&stats, words, sizeof stats);
  const auto rows = stats.ToRows();
  ASSERT_EQ(rows.size() * sizeof(uint64_t), sizeof(Stats)) << name;
  for (size_t i = 0; i < kWords; ++i) {
    EXPECT_EQ(rows[i].second, i + 1) << name << " row " << rows[i].first;
  }
}

TEST(RunSignatureTest, EveryStatsStructExportsOneRowPerCounter) {
  ExpectOneRowPerCounter<KernelStats>("KernelStats");
  ExpectOneRowPerCounter<ServerStats>("ServerStats");
  ExpectOneRowPerCounter<FaultStats>("FaultStats");
  ExpectOneRowPerCounter<AttackStats>("AttackStats");
  ExpectOneRowPerCounter<FilterChainStats>("FilterChainStats");
  ExpectOneRowPerCounter<DefenseStats>("DefenseStats");
  ExpectOneRowPerCounter<TransportStats>("TransportStats");
}

// One schema: sciolint M1's `subsystem.metric` shape (lowercase snake
// segments joined by dots), unique across every plane.
TEST(RunSignatureTest, RowNamesAreUniqueSubsystemMetrics) {
  std::vector<std::pair<std::string, uint64_t>> rows = KernelStats{}.ToRows();
  for (const auto& plane :
       {ServerStats{}.ToRows(), FaultStats{}.ToRows(), AttackStats{}.ToRows(),
        FilterChainStats{}.ToRows(), DefenseStats{}.ToRows(), TransportStats{}.ToRows()}) {
    rows.insert(rows.end(), plane.begin(), plane.end());
  }
  const std::regex shape("[a-z0-9_]+(\\.[a-z0-9_]+)+");
  std::set<std::string> seen;
  for (const auto& [name, value] : rows) {
    EXPECT_TRUE(std::regex_match(name, shape)) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate row " << name;
  }
}

// Bumps every counter of the plane `get` selects (a member pointer or a
// callable), one at a time, and expects each bump to change the signature.
template <typename Get>
void ExpectEveryCounterSigned(const BenchmarkResult& run, Get get) {
  const std::string base = RunSignature(run);
  BenchmarkResult named = run;
  const auto rows = std::invoke(get, named).ToRows();
  for (size_t word = 0; word < rows.size(); ++word) {
    BenchmarkResult bumped = run;
    Bump(&std::invoke(get, bumped), word);
    EXPECT_NE(RunSignature(bumped), base) << rows[word].first << " is not signed";
  }
}

TEST(RunSignatureTest, EveryCounterOfEveryPlaneIsSigned) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdEpoll;
  config.active.request_rate = 300;
  config.active.duration = Seconds(1);
  config.inactive.connections = 20;
  config.warmup = Millis(500);
  config.drain = Millis(500);
  config.transport_enabled = true;
  config.adaptive_defense = true;
  const BenchmarkResult run = RunBenchmark(config);
  ASSERT_TRUE(run.setup_ok);
  ASSERT_GT(run.successes, 0u);
  EXPECT_EQ(run.signature, RunSignature(run));

  ExpectEveryCounterSigned(run, &BenchmarkResult::kernel_stats);
  ExpectEveryCounterSigned(run, [](BenchmarkResult& r) -> ServerStats& {
    return r.worker_stats[0];
  });
  ExpectEveryCounterSigned(run, &BenchmarkResult::fault_stats);
  ExpectEveryCounterSigned(run, &BenchmarkResult::attack_stats);
  ExpectEveryCounterSigned(run, &BenchmarkResult::chain_stats);
  ExpectEveryCounterSigned(run, &BenchmarkResult::defense_stats);
  ExpectEveryCounterSigned(run, &BenchmarkResult::transport_stats);
}

}  // namespace
}  // namespace scio
