// Tests for the ingress-defense stack: filter chain verdicts and costs, the
// SYN (half-open) backlog with syncookie fallback, the adaptive defense tier
// ladder, and scripted attack campaigns.

#include <gtest/gtest.h>

#include "src/load/attack_campaign.h"
#include "src/load/benchmark_run.h"
#include "src/net/filter_chain.h"
#include "src/servers/defense.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

// --- IngressFilterChain ------------------------------------------------------------

class FilterChainTest : public ::testing::Test {
 protected:
  FilterChainTest() : kernel_(&sim_), chain_(&kernel_) {}
  Simulator sim_;
  SimKernel kernel_;
  IngressFilterChain chain_;
};

TEST_F(FilterChainTest, EmptyChainAcceptsAtZeroTraversalCost) {
  EXPECT_EQ(chain_.EvalConnect(5000), FilterVerdict::kAccept);
  EXPECT_EQ(chain_.EvalPacket(5000), FilterVerdict::kAccept);
  EXPECT_EQ(kernel_.stats().filter_evals, 2u);
  EXPECT_EQ(kernel_.stats().filter_rules_traversed, 0u);
  EXPECT_EQ(kernel_.attribution()[ChargeCat::kFilterMatch], 0);
}

TEST(FilterRuleDefaults, RateLimitDefaultsPinnedToNamedConstant) {
  // The default admission rate is load-bearing for every checked-in defense
  // bench: silently changing it would shift attack-run CSVs. Pin both the
  // constant's value and that a default-constructed rule uses it.
  EXPECT_DOUBLE_EQ(kDefaultFilterRatePerSec, 100.0);
  FilterRule rule;
  EXPECT_DOUBLE_EQ(rule.rate_per_sec, kDefaultFilterRatePerSec);
}

TEST_F(FilterChainTest, FirstMatchDecidesAndBandsAreHalfOpen) {
  FilterRule drop;
  drop.src_lo = 100;
  drop.src_hi = 200;
  drop.verdict = FilterVerdict::kDrop;
  chain_.Append(drop);
  FilterRule accept_all;  // would accept 150 too, but sits behind the drop
  chain_.Append(accept_all);

  EXPECT_EQ(chain_.EvalConnect(150), FilterVerdict::kDrop);
  EXPECT_EQ(chain_.EvalConnect(99), FilterVerdict::kAccept) << "below the band";
  EXPECT_EQ(chain_.EvalConnect(200), FilterVerdict::kAccept) << "src_hi is exclusive";
  EXPECT_EQ(chain_.stats().dropped, 1u);
  EXPECT_EQ(chain_.stats().accepted, 2u);
}

TEST_F(FilterChainTest, InsertFrontPreemptsAndRemoveRestores) {
  FilterRule drop_all;
  drop_all.verdict = FilterVerdict::kDrop;
  chain_.Append(drop_all);
  EXPECT_EQ(chain_.EvalConnect(150), FilterVerdict::kDrop);

  FilterRule allow;
  allow.src_lo = 100;
  allow.src_hi = 200;
  const int id = chain_.InsertFront(allow);
  EXPECT_EQ(chain_.EvalConnect(150), FilterVerdict::kAccept);

  EXPECT_TRUE(chain_.Remove(id));
  EXPECT_FALSE(chain_.Remove(id)) << "already gone";
  EXPECT_EQ(chain_.EvalConnect(150), FilterVerdict::kDrop);
}

TEST_F(FilterChainTest, RateLimitBucketDrainsAndRefillsOnSimTime) {
  FilterRule limit;
  limit.verdict = FilterVerdict::kRateLimit;
  limit.rate_per_sec = 10.0;
  limit.burst = 2.0;
  chain_.Append(limit);

  EXPECT_EQ(chain_.EvalConnect(1), FilterVerdict::kAccept);
  EXPECT_EQ(chain_.EvalConnect(2), FilterVerdict::kAccept);
  EXPECT_EQ(chain_.EvalConnect(3), FilterVerdict::kDrop) << "burst exhausted";
  EXPECT_EQ(chain_.stats().rate_limit_drops, 1u);
  EXPECT_EQ(kernel_.stats().filter_rate_limit_drops, 1u);
  EXPECT_EQ(kernel_.stats().filter_drops, 0u) << "rate drops are counted apart";

  // 10/s * ~0.1s = 1 token back (the rule-update charge at Append() nudged
  // the clock, so run slightly past the exact refill boundary).
  sim_.AdvanceTo(Millis(105));
  EXPECT_EQ(chain_.EvalConnect(4), FilterVerdict::kAccept);
  EXPECT_EQ(chain_.EvalConnect(5), FilterVerdict::kDrop);
}

TEST_F(FilterChainTest, HookSelectionSkipsButStillTraverses) {
  FilterRule packet_only;
  packet_only.on_connect = false;
  packet_only.on_packet = true;
  packet_only.verdict = FilterVerdict::kDrop;
  chain_.Append(packet_only);

  EXPECT_EQ(chain_.EvalConnect(1), FilterVerdict::kAccept) << "wrong hook";
  EXPECT_EQ(chain_.EvalPacket(1), FilterVerdict::kDrop);
  // Both evals walked the one-rule chain; netfilter charges for the walk.
  // Filter work accrues as interrupt debt — a process-context charge pays it
  // into the attribution ledger under the filter categories.
  EXPECT_EQ(kernel_.stats().filter_rules_traversed, 2u);
  EXPECT_GT(kernel_.pending_interrupt_debt(), 0);
  kernel_.Charge(Nanos(1), ChargeCat::kTimerSweep);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kFilterMatch], 0);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kFilterDrop], 0);
}

TEST_F(FilterChainTest, BandCountsSortedAndWindowResets) {
  IngressFilterChain chain(&kernel_, /*band_width=*/100);
  chain.EvalConnect(950);  // band 9
  chain.EvalConnect(150);  // band 1
  chain.EvalConnect(199);  // band 1
  const auto counts = chain.TakeBandCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::pair<int, uint64_t>{1, 2}));
  EXPECT_EQ(counts[1], (std::pair<int, uint64_t>{9, 1}));
  EXPECT_TRUE(chain.TakeBandCounts().empty()) << "taking resets the window";
}

// --- SYN backlog -------------------------------------------------------------------

class SynBacklogTest : public SimWorldTest {};

TEST_F(SynBacklogTest, RawSynsFillHalfOpenQueueAndOverflow) {
  listener_->ConfigureSynBacklog({4, Seconds(3), false});
  for (int i = 0; i < 6; ++i) {
    net_.RawSyn(listener_, 2'000'000 + i);
  }
  sim_.RunAll();
  EXPECT_EQ(listener_->syn_backlog_depth(), 4u);
  EXPECT_EQ(listener_->syn_backlog_peak(), 4u);
  EXPECT_EQ(kernel_.stats().net_raw_syns, 6u);
  EXPECT_EQ(kernel_.stats().net_syn_backlog_overflows, 2u);
  EXPECT_EQ(listener_->backlog_depth(), 0u) << "spoofed SYNs never establish";
}

TEST_F(SynBacklogTest, HalfOpenEntriesReapedAfterTimeout) {
  listener_->ConfigureSynBacklog({4, Seconds(3), false});
  for (int i = 0; i < 4; ++i) {
    net_.RawSyn(listener_, 2'000'000 + i);
  }
  sim_.RunAll();
  ASSERT_EQ(listener_->syn_backlog_depth(), 4u);
  RunFor(Seconds(4));
  listener_->ReapHalfOpen();
  EXPECT_EQ(listener_->syn_backlog_depth(), 0u);
  EXPECT_EQ(kernel_.stats().net_half_open_reaped, 4u);
}

TEST_F(SynBacklogTest, SyncookiesHoldNoStateButCostCpu) {
  listener_->ConfigureSynBacklog({4, Seconds(3), true});
  // Fill the queue first so the cookie path (queue-full) actually engages.
  for (int i = 0; i < 10; ++i) {
    net_.RawSyn(listener_, 2'000'000 + i);
  }
  sim_.RunAll();
  EXPECT_EQ(listener_->syn_backlog_depth(), 0u)
      << "cookies answer statelessly; no half-open entries at all";
  EXPECT_EQ(kernel_.stats().net_syncookies_sent, 10u);
  EXPECT_EQ(kernel_.stats().net_syn_backlog_overflows, 0u);
  // Cookie cost is interrupt debt; pay it so it lands in the ledger.
  kernel_.Charge(Nanos(1), ChargeCat::kTimerSweep);
  EXPECT_GT(kernel_.attribution()[ChargeCat::kSynCookie], 0);
  // Benign connections still establish through the cookie path.
  auto client = ClientConnect();
  EXPECT_EQ(listener_->backlog_depth(), 1u);
}

TEST_F(SynBacklogTest, SaturatedQueueSilentlyDropsBenignSyn) {
  listener_->ConfigureSynBacklog({4, Seconds(3), false});
  for (int i = 0; i < 4; ++i) {
    net_.RawSyn(listener_, 2'000'000 + i);
  }
  sim_.RunAll();
  bool refused = false;
  auto client = net_.Connect(listener_);
  client->on_refused = [&] { refused = true; };
  sim_.RunAll();
  EXPECT_EQ(listener_->backlog_depth(), 0u) << "the benign SYN found no slot";
  EXPECT_FALSE(refused) << "silent drop, not an RST: the client just times out";
  EXPECT_EQ(client->state(), SimSocket::State::kConnecting);
  EXPECT_EQ(kernel_.stats().net_syn_backlog_overflows, 1u);
}

TEST_F(SynBacklogTest, BenignPathUntouchedByDefaults) {
  auto [client, fd] = EstablishedPair();
  EXPECT_EQ(client->state(), SimSocket::State::kEstablished);
  EXPECT_EQ(listener_->syn_backlog_depth(), 0u);
  EXPECT_EQ(kernel_.stats().net_syncookies_sent, 0u);
  EXPECT_EQ(kernel_.stats().filter_evals, 0u) << "no chain attached, no cost";
}

// --- filter hooks on the live ingress path -----------------------------------------

TEST_F(SimWorldTest, ConnectHookDropIsSilent) {
  IngressFilterChain chain(&kernel_);
  net_.set_filter(&chain);
  FilterRule drop_all;
  drop_all.verdict = FilterVerdict::kDrop;
  chain.Append(drop_all);

  bool refused = false;
  auto client = net_.Connect(listener_);
  client->on_refused = [&] { refused = true; };
  sim_.RunAll();
  EXPECT_EQ(listener_->backlog_depth(), 0u);
  EXPECT_FALSE(refused);
  EXPECT_EQ(client->state(), SimSocket::State::kConnecting);
  EXPECT_EQ(chain.stats().dropped, 1u);
}

TEST_F(SimWorldTest, PacketHookDropDiscardsBytesBeforeTheSocket) {
  auto [client, fd] = EstablishedPair();
  IngressFilterChain chain(&kernel_);
  net_.set_filter(&chain);
  FilterRule drop_packets;
  drop_packets.on_connect = false;
  drop_packets.on_packet = true;
  drop_packets.verdict = FilterVerdict::kDrop;
  const int rule_id = chain.Append(drop_packets);

  client->Write(Chunk{"GET /", 0});
  sim_.RunAll();
  auto server_sock = sys_.socket(fd);
  EXPECT_EQ(server_sock->available(), 0u) << "dropped in interrupt context";
  EXPECT_EQ(chain.stats().packet_evals, 1u);
  EXPECT_EQ(chain.stats().dropped, 1u);

  chain.Remove(rule_id);
  client->Write(Chunk{"x", 0});
  sim_.RunAll();
  EXPECT_EQ(server_sock->available(), 1u) << "chain emptied, bytes flow again";
}

// --- AdaptiveDefense ----------------------------------------------------------------

class DefenseTest : public SimWorldTest {
 protected:
  static DefenseConfig TestConfig() {
    DefenseConfig config;
    config.tick_interval = Millis(10);
    config.min_band_syns = 5;
    config.drop_delta_threshold = 10;
    config.sustain_ticks = 3;
    config.calm_ticks = 2;
    config.band_burst = 16.0;
    return config;
  }

  void Flood(int count) {
    for (int i = 0; i < count; ++i) {
      net_.RawSyn(listener_, (1 << 20) + (i % 1000));
    }
    sim_.RunAll();
  }

  void TickAfter(AdaptiveDefense& defense, SimDuration gap) {
    sim_.AdvanceTo(sim_.now() + gap);
    defense.Tick(0.0);
  }
};

TEST_F(DefenseTest, LadderEscalatesHardensAndUnwinds) {
  IngressFilterChain chain(&kernel_, /*band_width=*/1 << 16);
  net_.set_filter(&chain);
  // Short SYN timeout so abandoned half-open entries decay between ticks and
  // the calm path is reachable within the test's horizon.
  listener_->ConfigureSynBacklog({16, Millis(20), false});
  AdaptiveDefense defense(&kernel_, &chain, TestConfig());
  defense.AddListener(listener_);

  // Wave 1: overflows trip the first tick; tier 1 = cookies + hot-band limit.
  Flood(100);
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 1);
  EXPECT_TRUE(listener_->syn_config().syncookies);
  EXPECT_EQ(chain.size(), 1u) << "one RATE_LIMIT rule on the flood band";
  EXPECT_EQ(defense.stats().band_rules_installed, 1u);

  // Sustained pressure: the band rule keeps dropping (drop deltas), so the
  // ladder hardens the band to DROP after sustain_ticks.
  Flood(100);
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 1);
  Flood(100);
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 2);
  EXPECT_EQ(defense.stats().band_rules_hardened, 1u);
  EXPECT_EQ(chain.size(), 1u);

  // Attack ends: two calm ticks soften, two more clear everything.
  TickAfter(defense, Millis(10));
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 1);
  TickAfter(defense, Millis(10));
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 0);
  EXPECT_EQ(chain.size(), 0u) << "calm path restored to zero rules";
  EXPECT_FALSE(listener_->syn_config().syncookies);
  EXPECT_EQ(defense.stats().deescalations, 2u);
}

TEST_F(DefenseTest, InBandFloodNeverBlocklistsTheEphemeralRange) {
  IngressFilterChain chain(&kernel_, /*band_width=*/1 << 16);
  net_.set_filter(&chain);
  listener_->ConfigureSynBacklog({16, Millis(20), false});
  AdaptiveDefense defense(&kernel_, &chain, TestConfig());
  defense.AddListener(listener_);

  // A raw-SYN storm from inside the real ephemeral range (band 0): the
  // overflow pressure must escalate, but the hot band is the one benign
  // clients live in, so no band rule may ever be installed — blocklisting it
  // would be a self-inflicted outage.
  for (int i = 0; i < 100; ++i) {
    net_.RawSyn(listener_, 40000 + (i % 1000));
  }
  sim_.RunAll();
  TickAfter(defense, Millis(10));
  EXPECT_EQ(defense.tier(), 1) << "cookies still engage against in-band abuse";
  EXPECT_TRUE(listener_->syn_config().syncookies);
  EXPECT_EQ(chain.size(), 0u) << "the ephemeral band is never a rule target";
  EXPECT_EQ(defense.stats().band_rules_installed, 0u);
}

TEST_F(DefenseTest, CalmTrafficNeverEscalates) {
  IngressFilterChain chain(&kernel_, 1 << 16);
  net_.set_filter(&chain);
  AdaptiveDefense defense(&kernel_, &chain, TestConfig());
  defense.AddListener(listener_);
  for (int i = 0; i < 20; ++i) {
    auto [client, fd] = EstablishedPair();
    EXPECT_EQ(sys_.Close(fd), 0);
    sim_.RunAll();
    TickAfter(defense, Millis(10));
  }
  EXPECT_EQ(defense.tier(), 0);
  EXPECT_EQ(chain.size(), 0u);
  EXPECT_EQ(defense.stats().escalations, 0u);
}

// --- AttackCampaign ----------------------------------------------------------------

TEST_F(SimWorldTest, SynFloodWaveDeliversSeededPoissonSyns) {
  AttackSchedule schedule;
  schedule.name = "flood";
  AttackWave wave;
  wave.kind = AttackKind::kSynFlood;
  wave.start = 0;
  wave.end = Seconds(1);
  wave.rate = 1000;
  schedule.Add(wave);

  AttackCampaign campaign(&net_, listener_, schedule);
  campaign.Start();
  sim_.RunAll();
  const uint64_t sent = campaign.stats().syns_sent;
  EXPECT_GT(sent, 800u);
  EXPECT_LT(sent, 1200u);
  EXPECT_EQ(kernel_.stats().net_raw_syns, sent) << "every spoofed SYN reached the wire";
}

TEST_F(SimWorldTest, RuleBlowupInstallsAndWithdrawsJunkRules) {
  IngressFilterChain chain(&kernel_);
  net_.set_filter(&chain);
  AttackSchedule schedule;
  AttackWave wave;
  wave.kind = AttackKind::kRuleBlowup;
  wave.start = Millis(100);
  wave.end = Millis(200);
  wave.rules = 50;
  schedule.Add(wave);

  AttackCampaign campaign(&net_, listener_, schedule);
  campaign.Start();
  sim_.AdvanceTo(Millis(150));
  EXPECT_EQ(chain.size(), 50u);
  EXPECT_EQ(campaign.stats().junk_rules_installed, 50u);
  // Junk rules are pure traversal tax: benign connects still pass.
  auto client = ClientConnect();
  EXPECT_EQ(listener_->backlog_depth(), 1u);
  sim_.AdvanceTo(Millis(250));
  EXPECT_EQ(chain.size(), 0u);
  EXPECT_EQ(campaign.stats().junk_rules_removed, 50u);
}

TEST(AttackDefenseRun, FloodedAdaptiveRunIsDeterministic) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 200;
  config.active.duration = Seconds(2);
  config.warmup = Millis(500);
  config.drain = Millis(500);
  config.adaptive_defense = true;
  config.server_config.syn_backlog.max_half_open = 64;
  AttackWave wave;
  wave.kind = AttackKind::kSynFlood;
  wave.start = Millis(700);
  wave.end = Seconds(2);
  wave.rate = 3000;
  config.attack.Add(wave);

  const BenchmarkResult a = RunBenchmark(config);
  const BenchmarkResult b = RunBenchmark(config);
  EXPECT_GT(a.attack_stats.syns_sent, 0u);
  EXPECT_GT(a.chain_stats.connect_evals, 0u);
  EXPECT_GT(a.defense_stats.escalations, 0u);
  EXPECT_EQ(a.attack_stats.syns_sent, b.attack_stats.syns_sent);
  EXPECT_EQ(a.chain_stats.connect_evals, b.chain_stats.connect_evals);
  EXPECT_EQ(a.chain_stats.dropped, b.chain_stats.dropped);
  EXPECT_EQ(a.chain_stats.rate_limit_drops, b.chain_stats.rate_limit_drops);
  EXPECT_EQ(a.defense_stats.escalations, b.defense_stats.escalations);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.attribution.Signature(), b.attribution.Signature());
  // The ledger invariant holds with the three new categories in play.
  EXPECT_EQ(a.attribution.Sum(), a.busy_time);
  EXPECT_GT(a.attribution[ChargeCat::kFilterMatch], 0);
}

TEST(AttackDefenseRun, SlowlorisDeadlineReapsFreeTheServer) {
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdDevPoll;
  config.active.request_rate = 200;
  config.active.duration = Seconds(4);
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  config.server_max_fds = 128;
  config.adaptive_defense = true;
  config.defense.request_deadline = Seconds(1);
  AttackWave wave;
  wave.kind = AttackKind::kSlowloris;
  wave.start = Millis(700);
  wave.end = Seconds(4);
  wave.population = 200;  // well past the 128-fd table
  wave.write_interval = Millis(200);
  wave.reconnect_delay = Millis(200);
  config.attack.Add(wave);

  const BenchmarkResult result = RunBenchmark(config);
  EXPECT_GT(result.server_stats.deadline_reaps, 0u)
      << "dripping connections age past the request deadline and are cut";
  EXPECT_GT(result.attack_stats.slowloris_reconnects, 0u);
  EXPECT_GT(result.successes, 0u) << "benign load keeps being served";
  EXPECT_EQ(result.attribution.Sum(), result.busy_time);
}

}  // namespace
}  // namespace scio
