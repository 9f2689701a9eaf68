// AdaptiveDefense: server-side graceful degradation against ingress attacks.
//
// The seed servers already degrade gracefully under *resource* pressure
// (fd-watermark hysteresis, pressure reaps). This controller closes the loop
// against *adversarial* pressure: it watches cheap kernel signals — SYN-queue
// occupancy and overflows, refused-connection deltas, fd-table fill — and
// walks a small tier ladder:
//
//   tier 0  calm      no rules, no cookies; zero cost on the benign path.
//   tier 1  pressure  syncookies on; the hottest SYN source band (if one
//                     band dominates) gets a front-inserted RATE_LIMIT rule;
//                     servers reap connections that sit in the read phase
//                     past a request deadline (the slowloris killer: dripping
//                     bytes resets idle timers but cannot reset its age).
//   tier 2  sustained hot-band rules harden from RATE_LIMIT to DROP.
//
// De-escalation is hysteretic: a tier is shed only after `calm_ticks` quiet
// ticks, so the ladder doesn't flap at the attack edge. Every decision is a
// pure function of simulation state, so defended runs stay bit-identical.
//
// One defense instance can serve several workers (SMP): each worker reports
// its own fd fill through Tick(), and the controller acts on the worst one;
// listener shards are registered with AddListener so cookie toggles and
// occupancy checks cover the whole SO_REUSEPORT group.

#ifndef SRC_SERVERS_DEFENSE_H_
#define SRC_SERVERS_DEFENSE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/sim_kernel.h"
#include "src/net/filter_chain.h"
#include "src/net/listener.h"

namespace scio {

struct DefenseConfig {
  // Minimum spacing between control decisions; the effective cadence is the
  // slower of this and the callers' sweep interval (Tick rides MaybeSweep).
  SimDuration tick_interval = Millis(500);
  // Chain drops since the last tick that trip it, beside the fixed pressure
  // signals in defense.cc.
  uint64_t drop_delta_threshold = 50;
  // Fewest SYNs since the last tick that make a source band "hot" (it must
  // also carry kBandShare of them, see defense.cc).
  uint64_t min_band_syns = 50;
  // Burst of the tier-1 rate limit applied to a hot band.
  double band_burst = 64.0;
  // Consecutive calm ticks before shedding one tier.
  int calm_ticks = 4;
  // Pressure ticks at tier 1 before hardening hot bands to DROP.
  int sustain_ticks = 3;
  // Connections still reading their request after this long are reaped while
  // the defense is engaged (tier >= 1). Benign requests finish in
  // milliseconds; only drip-fed ones grow this old.
  SimDuration request_deadline = Seconds(2);
};

struct DefenseStats {
  uint64_t ticks = 0;
  uint64_t pressure_ticks = 0;
  uint64_t escalations = 0;
  uint64_t deescalations = 0;
  uint64_t band_rules_installed = 0;
  uint64_t band_rules_hardened = 0;  // RATE_LIMIT replaced by DROP
  uint64_t band_rules_removed = 0;
  uint64_t tier_peak = 0;

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

class AdaptiveDefense {
 public:
  AdaptiveDefense(SimKernel* kernel, IngressFilterChain* chain,
                  DefenseConfig config = DefenseConfig{});
  AdaptiveDefense(const AdaptiveDefense&) = delete;
  AdaptiveDefense& operator=(const AdaptiveDefense&) = delete;

  // Register a listener (one per SO_REUSEPORT shard) for cookie toggles and
  // SYN-queue occupancy checks.
  void AddListener(std::shared_ptr<SimListener> listener);

  // One control opportunity; callers invoke this from their timer sweep with
  // their own fd-table fill fraction. Cheaper than one rule traversal when
  // the interval hasn't elapsed (the worst fd report is still retained).
  void Tick(double fd_frac);

  int tier() const { return tier_; }
  const DefenseConfig& config() const { return config_; }
  const DefenseStats& stats() const { return stats_; }

 private:
  struct BandRule {
    int rule_id = 0;
    bool hardened = false;  // true once the rule is a DROP
  };

  bool ReadPressure();
  FilterRule MakeBandRule(int band, bool harden) const;
  // `bands` is the per-band SYN window taken at the top of the tick.
  void InstallBandRules(const std::vector<std::pair<int, uint64_t>>& bands,
                        bool harden);
  void Escalate();
  void Deescalate();
  void SetCookies(bool on);

  SimKernel* kernel_;
  IngressFilterChain* chain_;
  DefenseConfig config_;
  std::vector<std::shared_ptr<SimListener>> listeners_;
  SimTime next_tick_ = 0;
  double pending_fd_frac_ = 0.0;  // worst fd fill reported since the last tick
  int tier_ = 0;
  int calm_streak_ = 0;
  int pressure_streak_ = 0;
  uint64_t last_refused_ = 0;
  uint64_t last_overflows_ = 0;
  uint64_t last_filter_drops_ = 0;
  // Ordered by band so rule installation order is deterministic (D2).
  // sciolint: allow(P1) -- keyed by traffic band (handful of entries), not by fd
  std::map<int, BandRule> band_rules_;
  DefenseStats stats_;
};

}  // namespace scio

#endif  // SRC_SERVERS_DEFENSE_H_
