#include "src/servers/defense.h"

#include <algorithm>

namespace scio {

namespace {

// Pressure signals (any one, or DefenseConfig::drop_delta_threshold chain
// drops, trips the tick):
constexpr double kSynqPressureFrac = 0.8;        // half-open queue fill fraction
constexpr uint64_t kRefusedDeltaThreshold = 10;  // refusals since the last tick
constexpr double kFdPressureFrac = 0.9;          // worst reported fd-table fill
// A SYN source band is "hot" when it carried at least this share of the
// SYNs seen since the last tick (and at least min_band_syns of them).
constexpr double kBandShare = 0.5;
// Tier-1 rate limit applied to a hot band.
constexpr double kBandRatePerSec = 200.0;
// Bands overlapping [0, kProtectedSrcBelow) are never rule targets. That
// is the real ephemeral range, where benign clients are indistinguishable
// from in-band abuse (e.g. a slowloris herd): a band rule there would
// blocklist the server's own legitimate address space. In-band pressure is
// handled by cookies and the request-deadline reap instead.
constexpr int kProtectedSrcBelow = 1 << 16;

}  // namespace

std::vector<std::pair<std::string, uint64_t>> DefenseStats::ToRows() const {
  return {
      {"defense.ticks", ticks},
      {"defense.pressure_ticks", pressure_ticks},
      {"defense.escalations", escalations},
      {"defense.deescalations", deescalations},
      {"defense.band_rules_installed", band_rules_installed},
      {"defense.band_rules_hardened", band_rules_hardened},
      {"defense.band_rules_removed", band_rules_removed},
      {"defense.tier_peak", tier_peak},
  };
}

AdaptiveDefense::AdaptiveDefense(SimKernel* kernel, IngressFilterChain* chain,
                                 DefenseConfig config)
    : kernel_(kernel), chain_(chain), config_(config) {}

void AdaptiveDefense::AddListener(std::shared_ptr<SimListener> listener) {
  listeners_.push_back(std::move(listener));
}

bool AdaptiveDefense::ReadPressure() {
  const KernelStats& stats = kernel_->stats();
  const uint64_t refused_delta = stats.connections_refused - last_refused_;
  const uint64_t overflow_delta = stats.net_syn_backlog_overflows - last_overflows_;
  const uint64_t drops_now = stats.filter_drops + stats.filter_rate_limit_drops;
  const uint64_t drop_delta = drops_now - last_filter_drops_;
  last_refused_ = stats.connections_refused;
  last_overflows_ = stats.net_syn_backlog_overflows;
  last_filter_drops_ = drops_now;

  double synq_frac = 0.0;
  for (const std::shared_ptr<SimListener>& listener : listeners_) {
    const double cap = static_cast<double>(listener->syn_config().max_half_open);
    if (cap > 0) {
      synq_frac = std::max(
          synq_frac, static_cast<double>(listener->syn_backlog_depth()) / cap);
    }
  }

  // Chain drops counting as pressure is what keeps the ladder engaged while
  // an attack is being successfully absorbed: without it, a working defense
  // makes the raw signals go quiet, the tier unwinds, and the attack storms
  // back in — a control-loop flap with the attacker as the oscillator.
  return synq_frac >= kSynqPressureFrac || overflow_delta > 0 ||
         refused_delta > kRefusedDeltaThreshold || pending_fd_frac_ >= kFdPressureFrac ||
         drop_delta > config_.drop_delta_threshold;
}

void AdaptiveDefense::Tick(double fd_frac) {
  pending_fd_frac_ = std::max(pending_fd_frac_, fd_frac);
  if (kernel_->now() < next_tick_) {
    return;
  }
  next_tick_ = kernel_->now() + config_.tick_interval;
  ++stats_.ticks;
  kernel_->Charge(kernel_->cost().defense_tick, ChargeCat::kTimerSweep);
  // Decay half-open occupancy before reading it, so a queue the flood has
  // abandoned doesn't read as pressure forever.
  for (const std::shared_ptr<SimListener>& listener : listeners_) {
    listener->ReapHalfOpen();
  }

  // Consume the band window every tick, pressure or not: the hot-band signal
  // must be one tick-interval fresh, or the first pressure tick reads a
  // window stretching back to the last attack and sees mostly benign SYNs.
  const std::vector<std::pair<int, uint64_t>> bands =
      chain_ != nullptr ? chain_->TakeBandCounts()
                        : std::vector<std::pair<int, uint64_t>>{};
  const bool pressure = ReadPressure();
  pending_fd_frac_ = 0.0;

  if (pressure) {
    ++stats_.pressure_ticks;
    calm_streak_ = 0;
    ++pressure_streak_;
    if (tier_ == 0) {
      Escalate();
    } else if (tier_ == 1 && pressure_streak_ >= config_.sustain_ticks) {
      Escalate();
    }
    InstallBandRules(bands, /*harden=*/tier_ >= 2);
  } else {
    pressure_streak_ = 0;
    if (tier_ > 0 && ++calm_streak_ >= config_.calm_ticks) {
      Deescalate();
      calm_streak_ = 0;
    }
  }
}

void AdaptiveDefense::Escalate() {
  ++tier_;
  ++stats_.escalations;
  stats_.tier_peak = std::max<uint64_t>(stats_.tier_peak, static_cast<uint64_t>(tier_));
  if (tier_ == 1) {
    SetCookies(true);
  }
}

void AdaptiveDefense::Deescalate() {
  --tier_;
  ++stats_.deescalations;
  if (tier_ <= 1) {
    // Soften hardened bands back to rate limits; at tier 0 remove them all
    // and turn cookies off, restoring the zero-cost calm path.
    for (auto& [band, rule] : band_rules_) {
      if (chain_ == nullptr) {
        break;
      }
      chain_->Remove(rule.rule_id);
      if (tier_ >= 1) {
        rule = {chain_->InsertFront(MakeBandRule(band, /*harden=*/false)), false};
      } else {
        ++stats_.band_rules_removed;
      }
    }
    if (tier_ == 0) {
      band_rules_.clear();
      SetCookies(false);
    }
  }
}

FilterRule AdaptiveDefense::MakeBandRule(int band, bool harden) const {
  FilterRule rule;
  rule.label = harden ? "defense-drop" : "defense-limit";
  const int width = chain_ != nullptr ? chain_->band_width() : 4096;
  rule.src_lo = band * width;
  rule.src_hi = rule.src_lo + width;
  rule.on_connect = true;
  rule.on_packet = false;
  if (harden) {
    rule.verdict = FilterVerdict::kDrop;
  } else {
    rule.verdict = FilterVerdict::kRateLimit;
    rule.rate_per_sec = kBandRatePerSec;
    rule.burst = config_.band_burst;
  }
  return rule;
}

void AdaptiveDefense::InstallBandRules(
    const std::vector<std::pair<int, uint64_t>>& bands, bool harden) {
  if (chain_ == nullptr) {
    return;
  }
  uint64_t total = 0;
  for (const auto& [band, count] : bands) {
    total += count;
  }
  const int width = chain_->band_width();
  for (const auto& [band, count] : bands) {
    // Never blocklist the protected (ephemeral) range: benign clients live
    // there, so a hot band below the floor means in-band abuse that only the
    // cookie/reap half of the ladder can handle.
    if (band * width < kProtectedSrcBelow) {
      continue;
    }
    if (count < config_.min_band_syns ||
        static_cast<double>(count) < kBandShare * static_cast<double>(total)) {
      continue;
    }
    auto it = band_rules_.find(band);
    if (it == band_rules_.end()) {
      band_rules_[band] = {chain_->InsertFront(MakeBandRule(band, harden)), harden};
      ++stats_.band_rules_installed;
    } else if (harden && !it->second.hardened) {
      chain_->Remove(it->second.rule_id);
      it->second = {chain_->InsertFront(MakeBandRule(band, /*harden=*/true)), true};
      ++stats_.band_rules_hardened;
    }
  }
}

void AdaptiveDefense::SetCookies(bool on) {
  for (const std::shared_ptr<SimListener>& listener : listeners_) {
    listener->set_syncookies(on);
  }
}

}  // namespace scio
