// Attack & defense bench: scripted ingress campaigns vs three filtering
// postures, measuring graceful degradation instead of raw throughput.
//
// Each campaign opens an attack window mid-generation and every (campaign,
// server, posture) cell runs the same seeded benign load underneath it:
//
//   no-filter  the seed servers as shipped: no chain, no cookies.
//   static     an operator's blunt instrument: one global RATE_LIMIT rule
//              plus always-on syncookies, installed before the run.
//   adaptive   the AdaptiveDefense tier ladder, starting from a cold chain.
//
// The headline gate is the robustness claim: under every campaign the
// adaptive posture must keep the benign reply rate at >= 2x the no-filter
// posture over the attack window, and must be back at >= 90% of its
// pre-attack baseline within a bounded post-attack window. Every run must
// satisfy attribution.Sum() == busy_time (filter CPU is charged like any
// other kernel work), and a double-run section proves campaigns replay
// bit-for-bit. A final sweep prices rule-chain traversal against connection
// count for the filtering-cost table in EXPERIMENTS.md.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"

namespace scio {
namespace {

// Run layout: generation spans [warmup, warmup + duration); reply_series
// bucket i covers [i, i+1) seconds of that window. The attack window sits
// mid-generation so the series shows healthy -> degraded -> recovered.
struct Layout {
  SimDuration warmup = Seconds(2);
  SimDuration duration = Seconds(10);
  SimDuration drain = Seconds(4);
  SimTime attack_start = Seconds(5);
  SimTime attack_end = Seconds(8);
  // Campaign intensities (scaled down under --quick).
  double flood_rate = 10000.0;
  double blowup_flood_rate = 8000.0;
  int blowup_rules = 300;
  int slowloris_population = 1500;
};

Layout MakeLayout(bool quick) {
  Layout layout;
  if (quick) {
    layout.duration = Seconds(6);
    layout.drain = Seconds(3);
    layout.attack_start = Seconds(4);
    layout.attack_end = Seconds(6);
    layout.flood_rate = 4000.0;
    layout.blowup_flood_rate = 3000.0;
    layout.blowup_rules = 120;
    // Still larger than both fd budgets (512 single-proc, 4x256 sharded) —
    // a slowloris herd the table can absorb is not an attack.
    layout.slowloris_population = 1200;
  }
  return layout;
}

// A server must be back at >= kRecoveryFraction of its pre-attack baseline
// within this many buckets of the attack window closing.
constexpr double kRecoveryFraction = 0.9;
constexpr int kRecoveryBoundBuckets = 3;
// Small fd table so a slowloris herd can actually exhaust it.
constexpr int kServerMaxFds = 512;
constexpr int kSmpWorkerMaxFds = 256;

struct Campaign {
  std::string name;
  AttackSchedule attack;
};

std::vector<Campaign> BuildCampaigns(const Layout& layout) {
  std::vector<Campaign> campaigns;
  {
    // Spoofed SYNs saturate the half-open queue; benign SYNs are then
    // silently dropped until the flood clears or cookies turn on.
    Campaign c;
    c.name = "syn-flood";
    c.attack.name = c.name;
    c.attack.seed = 211;
    AttackWave wave;
    wave.kind = AttackKind::kSynFlood;
    wave.start = layout.attack_start;
    wave.end = layout.attack_end;
    wave.rate = layout.flood_rate;
    c.attack.Add(wave);
    campaigns.push_back(c);
  }
  {
    // Real connections dribbling bytes forever: the fd table, not the SYN
    // queue, is the resource under attack.
    Campaign c;
    c.name = "slowloris";
    c.attack.name = c.name;
    c.attack.seed = 212;
    AttackWave wave;
    wave.kind = AttackKind::kSlowloris;
    wave.start = layout.attack_start;
    wave.end = layout.attack_end;
    wave.population = layout.slowloris_population;
    wave.write_interval = Millis(300);
    wave.reconnect_delay = Millis(300);
    c.attack.Add(wave);
    campaigns.push_back(c);
  }
  {
    // The operator-side failure mode: a reactive blocklist balloons while a
    // flood runs, so benign SYNs pay a long no-match traversal. Inert on the
    // no-filter posture (there is no chain to bloat) — that cell is a plain
    // flood.
    Campaign c;
    c.name = "blowup+flood";
    c.attack.name = c.name;
    c.attack.seed = 213;
    AttackWave blowup;
    blowup.kind = AttackKind::kRuleBlowup;
    blowup.start = layout.attack_start;
    blowup.end = layout.attack_end;
    blowup.rules = layout.blowup_rules;
    c.attack.Add(blowup);
    AttackWave flood;
    flood.kind = AttackKind::kSynFlood;
    flood.start = layout.attack_start;
    flood.end = layout.attack_end;
    flood.rate = layout.blowup_flood_rate;
    c.attack.Add(flood);
    campaigns.push_back(c);
  }
  return campaigns;
}

enum class Posture { kNoFilter, kStatic, kAdaptive };

const char* PostureName(Posture posture) {
  switch (posture) {
    case Posture::kNoFilter:
      return "no-filter";
    case Posture::kStatic:
      return "static";
    case Posture::kAdaptive:
      return "adaptive";
  }
  return "?";
}

FilterRule StaticGlobalLimit() {
  FilterRule rule;
  rule.label = "static-global-limit";
  rule.on_connect = true;
  rule.verdict = FilterVerdict::kRateLimit;
  rule.rate_per_sec = 2000.0;
  rule.burst = 256.0;
  return rule;
}

BenchmarkRunConfig MakeConfig(const Layout& layout, const Campaign& campaign,
                              ServerKind server, Posture posture) {
  BenchmarkRunConfig config;
  config.server = server;
  config.active.request_rate = 600.0;
  config.active.duration = layout.duration;
  config.active.seed = 11;
  config.active.max_retries = 3;  // real clients retry through an attack
  config.inactive.connections = 50;
  config.warmup = layout.warmup;
  config.drain = layout.drain;
  config.attack = campaign.attack;
  config.server_max_fds = kServerMaxFds;
  switch (posture) {
    case Posture::kNoFilter:
      break;
    case Posture::kStatic:
      config.static_rules.push_back(StaticGlobalLimit());
      config.server_config.syn_backlog.syncookies = true;
      break;
    case Posture::kAdaptive:
      config.adaptive_defense = true;
      // React within the attack window: control ticks every 200ms, and
      // anything still reading its request after 500ms (benign requests
      // finish in milliseconds) is drip-fed and gets reaped.
      config.defense.tick_interval = Millis(200);
      config.defense.request_deadline = Millis(500);
      break;
  }
  return config;
}

// The same cell on a sharded 4-worker thttpd-devpoll pool.
BenchmarkRunConfig MakeSmpConfig(const Layout& layout, const Campaign& campaign,
                                 Posture posture) {
  BenchmarkRunConfig config =
      MakeConfig(layout, campaign, ServerKind::kThttpdDevPoll, posture);
  config.mode = ListenerMode::kSharded;
  config.workers = 4;
  config.cpus = 4;
  config.seed = 29;
  config.server_max_fds = kSmpWorkerMaxFds;
  return config;
}

// Mean benign reply rate over the buckets fully inside the attack window —
// "reply rate at peak attack" in the acceptance wording.
double AttackWindowMean(const std::vector<double>& series, const Layout& layout) {
  const auto first = static_cast<size_t>((layout.attack_start - layout.warmup) / Seconds(1));
  const auto last = static_cast<size_t>((layout.attack_end - layout.warmup) / Seconds(1));
  double sum = 0;
  size_t n = 0;
  for (size_t i = first; i < last && i < series.size(); ++i) {
    sum += series[i];
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

struct Recovery {
  double baseline = 0;     // mean pre-attack bucket rate
  double recovery_s = -1;  // -1 = never recovered in the bounded window
  bool ok = false;
};

Recovery MeasureRecovery(const std::vector<double>& series, const Layout& layout) {
  Recovery r;
  const auto attack_bucket =
      static_cast<size_t>((layout.attack_start - layout.warmup) / Seconds(1));
  // The bucket containing the last attack instant still saw attack time;
  // recovery is judged from the first fully-clean bucket.
  const auto clear_bucket = static_cast<size_t>(
      (layout.attack_end - layout.warmup + Seconds(1) - 1) / Seconds(1));

  double sum = 0;
  for (size_t i = 0; i < attack_bucket && i < series.size(); ++i) {
    sum += series[i];
  }
  r.baseline = attack_bucket == 0 ? 0 : sum / static_cast<double>(attack_bucket);

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

std::string Fixed(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << std::fixed << value;
  return out.str();
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    }
  }
  const Layout layout = MakeLayout(quick);
  const std::vector<Campaign> campaigns = BuildCampaigns(layout);
  // The successor cores (epoll, kqueue) run the same campaigns as the 1999
  // interfaces — ROADMAP item 2's follow-up: the attack family must cover
  // the cores the scale story recommends, not just the paper's.
  const std::vector<ServerKind> servers =
      quick ? std::vector<ServerKind>{ServerKind::kThttpdDevPoll,
                                      ServerKind::kThttpdEpoll,
                                      ServerKind::kPhhttpdKqueue}
            : std::vector<ServerKind>{ServerKind::kThttpdDevPoll,
                                      ServerKind::kPhhttpd,
                                      ServerKind::kThttpdEpoll,
                                      ServerKind::kPhhttpdKqueue};
  const std::vector<Posture> postures = {Posture::kNoFilter, Posture::kStatic,
                                         Posture::kAdaptive};
  int failures = 0;

  std::cout << "=== attack & defense: campaigns vs filtering postures"
            << (quick ? " (quick)" : "") << " ===\n\n";
  Table table({"campaign", "server", "posture", "baseline_rps", "attack_rps",
               "recovery_s", "syns", "chain_drops", "cookies", "reaps", "tier_peak",
               "t_filter_ms", "t_drop_ms", "t_cookie_ms", "verdict"});

  for (const Campaign& campaign : campaigns) {
    for (ServerKind server : servers) {
      // The 2x gate compares postures within one (campaign, server) pair.
      double no_filter_mean = 0;
      for (Posture posture : postures) {
        const BenchmarkResult result =
            RunBenchmark(MakeConfig(layout, campaign, server, posture));
        if (!result.setup_ok) {
          table.AddRow({campaign.name, ServerKindName(server), PostureName(posture),
                        "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
                        "FAIL(setup)"});
          ++failures;
          continue;
        }
        const double attack_mean = AttackWindowMean(result.reply_series, layout);
        const Recovery recovery = MeasureRecovery(result.reply_series, layout);
        if (posture == Posture::kNoFilter) {
          no_filter_mean = attack_mean;
        }

        bool ok = true;
        std::string verdict = "ok";
        if (result.attribution.Sum() != result.busy_time) {
          ok = false;
          verdict = "FAIL(attribution)";
        } else if (posture == Posture::kAdaptive) {
          // The robustness claim: degrade gracefully under attack, then
          // come back once it clears.
          if (attack_mean < std::max(2.0 * no_filter_mean, 1.0)) {
            ok = false;
            verdict = "FAIL(2x-gate)";
          } else if (!recovery.ok) {
            ok = false;
            verdict = "FAIL(no-recovery)";
          } else {
            verdict = "PASS(2x)";
          }
        }
        if (!ok) {
          ++failures;
        }

        const uint64_t chain_drops =
            result.chain_stats.dropped + result.chain_stats.rate_limit_drops;
        table.AddRow(
            {campaign.name, ServerKindName(server), PostureName(posture),
             Fixed(recovery.baseline, 1), Fixed(attack_mean, 1),
             recovery.ok ? std::to_string(static_cast<int>(recovery.recovery_s))
                         : std::string("never"),
             std::to_string(result.kernel_stats.net_raw_syns),
             std::to_string(chain_drops),
             std::to_string(result.kernel_stats.net_syncookies_sent),
             std::to_string(result.server_stats.deadline_reaps),
             std::to_string(result.defense_stats.tier_peak),
             Fixed(ToMillis(result.attribution[ChargeCat::kFilterMatch]), 2),
             Fixed(ToMillis(result.attribution[ChargeCat::kFilterDrop]), 2),
             Fixed(ToMillis(result.attribution[ChargeCat::kSynCookie]), 2), verdict});
      }
    }
  }
  table.Print(std::cout);
  table.WriteCsvFile("attack_defense.csv");

  std::cout << "\n=== attack & defense: sharded SMP (4 workers, 4 cpus) ===\n\n";
  Table smp_table({"campaign", "posture", "baseline_rps", "attack_rps", "syns",
                   "chain_drops", "cookies", "tier_peak", "synq_peak", "verdict"});
  for (const Campaign& campaign : campaigns) {
    double no_filter_mean = 0;
    for (Posture posture : postures) {
      const BenchmarkResult result = RunBenchmark(MakeSmpConfig(layout, campaign, posture));
      if (!result.setup_ok) {
        smp_table.AddRow({campaign.name, PostureName(posture), "-", "-", "-", "-",
                          "-", "-", "-", "FAIL(setup)"});
        ++failures;
        continue;
      }
      const double attack_mean = AttackWindowMean(result.reply_series, layout);
      const Recovery recovery = MeasureRecovery(result.reply_series, layout);
      if (posture == Posture::kNoFilter) {
        no_filter_mean = attack_mean;
      }

      bool ok = true;
      std::string verdict = "ok";
      if (result.attribution.Sum() != result.busy_time) {
        ok = false;
        verdict = "FAIL(attribution)";
      } else if (posture == Posture::kAdaptive) {
        if (attack_mean < std::max(2.0 * no_filter_mean, 1.0)) {
          ok = false;
          verdict = "FAIL(2x-gate)";
        } else {
          verdict = "PASS(2x)";
        }
      }
      if (!ok) {
        ++failures;
      }

      const uint64_t chain_drops =
          result.chain_stats.dropped + result.chain_stats.rate_limit_drops;
      smp_table.AddRow({campaign.name, PostureName(posture),
                        Fixed(recovery.baseline, 1), Fixed(attack_mean, 1),
                        std::to_string(result.kernel_stats.net_raw_syns),
                        std::to_string(chain_drops),
                        std::to_string(result.kernel_stats.net_syncookies_sent),
                        std::to_string(result.defense_stats.tier_peak),
                        std::to_string(result.syn_backlog_peak), verdict});
    }
  }
  smp_table.Print(std::cout);
  smp_table.WriteCsvFile("attack_defense_smp.csv");

  std::cout << "\n=== attack & defense: determinism (same seeds, two runs) ===\n\n";
  for (const Campaign& campaign : campaigns) {
    const BenchmarkRunConfig config =
        MakeConfig(layout, campaign, ServerKind::kThttpdDevPoll, Posture::kAdaptive);
    const bool identical = RunBenchmark(config).signature == RunBenchmark(config).signature;
    std::cout << "  " << campaign.name << " (adaptive, thttpd-devpoll): "
              << (identical ? "identical" : "DIVERGED") << "\n";
    if (!identical) {
      ++failures;
    }
  }
  {
    const BenchmarkRunConfig config =
        MakeSmpConfig(layout, campaigns.front(), Posture::kAdaptive);
    const bool identical = RunBenchmark(config).signature == RunBenchmark(config).signature;
    std::cout << "  " << campaigns.front().name << " (adaptive, sharded x4): "
              << (identical ? "identical" : "DIVERGED") << "\n";
    if (!identical) {
      ++failures;
    }
  }

  std::cout << "\n=== filter cost vs connection count (benign load, junk rules) ===\n\n";
  Table cost_table({"rules", "inactive", "reply_avg", "evals", "rules_traversed",
                    "t_filter_ms", "ns_per_eval", "verdict"});
  const std::vector<int> rule_counts = quick ? std::vector<int>{0, 128}
                                             : std::vector<int>{0, 32, 128, 512};
  const std::vector<int> inactive_counts =
      quick ? std::vector<int>{250} : std::vector<int>{250, 1500};
  for (int inactive : inactive_counts) {
    for (int rules : rule_counts) {
      BenchmarkRunConfig config;
      config.server = ServerKind::kThttpdDevPoll;
      config.active.request_rate = 600.0;
      config.active.duration = layout.duration;
      config.active.seed = 11;
      config.inactive.connections = inactive;
      config.warmup = layout.warmup;
      config.drain = layout.drain;
      config.filter_enabled = true;
      for (int i = 0; i < rules; ++i) {
        // Narrow never-matching DROP bands: benign traffic pays the full
        // no-match traversal on both hooks, like a bloated blocklist.
        FilterRule rule;
        rule.label = "junk";
        rule.src_lo = (1 << 21) + i * 16;
        rule.src_hi = (1 << 21) + i * 16 + 16;
        rule.on_connect = true;
        rule.on_packet = true;
        rule.verdict = FilterVerdict::kDrop;
        config.static_rules.push_back(rule);
      }
      const BenchmarkResult result = RunBenchmark(config);
      const uint64_t evals =
          result.chain_stats.connect_evals + result.chain_stats.packet_evals;
      const double filter_ns =
          static_cast<double>(result.attribution[ChargeCat::kFilterMatch] +
                              result.attribution[ChargeCat::kFilterDrop]);
      const bool ok =
          result.setup_ok && result.attribution.Sum() == result.busy_time;
      if (!ok) {
        ++failures;
      }
      cost_table.AddRow(
          {std::to_string(rules), std::to_string(inactive),
           Fixed(result.reply_avg, 1), std::to_string(evals),
           std::to_string(result.kernel_stats.filter_rules_traversed),
           Fixed(filter_ns / 1e6, 2),
           Fixed(evals == 0 ? 0.0 : filter_ns / static_cast<double>(evals), 1),
           ok ? "ok" : "FAIL(attribution)"});
    }
  }
  cost_table.Print(std::cout);
  cost_table.WriteCsvFile("attack_filter_cost.csv");

  std::cout << "\n" << (failures == 0 ? "ALL PASS" : "FAILURES: " + std::to_string(failures))
            << std::endl;
  return failures == 0 ? 0 : 1;
}
