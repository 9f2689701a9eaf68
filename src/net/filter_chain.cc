#include "src/net/filter_chain.h"

#include <algorithm>

namespace scio {

std::vector<std::pair<std::string, uint64_t>> FilterChainStats::ToRows() const {
  return {
      {"chain.connect_evals", connect_evals},
      {"chain.packet_evals", packet_evals},
      {"chain.accepted", accepted},
      {"chain.dropped", dropped},
      {"chain.rate_limit_drops", rate_limit_drops},
      {"chain.rules_inserted", rules_inserted},
      {"chain.rules_removed", rules_removed},
  };
}

int IngressFilterChain::Append(FilterRule rule) {
  kernel_->Charge(kernel_->cost().filter_rule_update, ChargeCat::kFilterMatch);
  Entry entry;
  entry.id = next_id_++;
  entry.rule = std::move(rule);
  entry.tokens = entry.rule.burst;
  entry.last_refill = kernel_->now();
  entries_.push_back(std::move(entry));
  ++stats_.rules_inserted;
  return entries_.back().id;
}

int IngressFilterChain::InsertFront(FilterRule rule) {
  kernel_->Charge(kernel_->cost().filter_rule_update, ChargeCat::kFilterMatch);
  Entry entry;
  entry.id = next_id_++;
  entry.rule = std::move(rule);
  entry.tokens = entry.rule.burst;
  entry.last_refill = kernel_->now();
  entries_.insert(entries_.begin(), std::move(entry));
  ++stats_.rules_inserted;
  return entries_.front().id;
}

bool IngressFilterChain::Remove(int id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      kernel_->Charge(kernel_->cost().filter_rule_update, ChargeCat::kFilterMatch);
      entries_.erase(it);
      ++stats_.rules_removed;
      return true;
    }
  }
  return false;
}

FilterVerdict IngressFilterChain::EvalConnect(int src_port) {
  ++stats_.connect_evals;
  // Band observation rides the connect hook: counting one SYN into its band
  // is part of the per-SYN work the chain already does.
  band_counts_[src_port / band_width_] += 1;
  return Eval(src_port, /*connect_hook=*/true);
}

FilterVerdict IngressFilterChain::EvalPacket(int src_port) {
  ++stats_.packet_evals;
  return Eval(src_port, /*connect_hook=*/false);
}

FilterVerdict IngressFilterChain::Eval(int src_port, bool connect_hook) {
  KernelStats& stats = kernel_->stats();
  ++stats.filter_evals;

  uint64_t traversed = 0;
  FilterVerdict verdict = FilterVerdict::kAccept;  // default chain policy
  bool rate_limited = false;
  for (Entry& entry : entries_) {
    ++traversed;
    const FilterRule& rule = entry.rule;
    if (connect_hook ? !rule.on_connect : !rule.on_packet) {
      continue;
    }
    if (src_port < rule.src_lo || src_port >= rule.src_hi) {
      continue;
    }
    if (rule.verdict == FilterVerdict::kRateLimit) {
      // Lazy token refill on the simulated clock; pure arithmetic on sim
      // time, so identical seeds refill identically.
      const SimTime now = kernel_->now();
      entry.tokens = std::min(
          rule.burst, entry.tokens + ToSeconds(now - entry.last_refill) * rule.rate_per_sec);
      entry.last_refill = now;
      if (entry.tokens >= 1.0) {
        entry.tokens -= 1.0;
        verdict = FilterVerdict::kAccept;
      } else {
        verdict = FilterVerdict::kDrop;
        rate_limited = true;
      }
    } else {
      verdict = rule.verdict;
    }
    break;  // first match decides
  }

  stats.filter_rules_traversed += traversed;
  // Ingress filtering runs in interrupt context: charge as debt, paid by the
  // next process-context charge (or absorbed by idle), like packet work.
  if (traversed > 0) {
    kernel_->ChargeDebt(
        kernel_->cost().filter_match_per_rule * static_cast<SimDuration>(traversed),
        ChargeCat::kFilterMatch);
  }
  if (verdict == FilterVerdict::kDrop) {
    kernel_->ChargeDebt(kernel_->cost().filter_drop_extra, ChargeCat::kFilterDrop);
    if (rate_limited) {
      ++stats.filter_rate_limit_drops;
      ++stats_.rate_limit_drops;
    } else {
      ++stats.filter_drops;
      ++stats_.dropped;
    }
  } else {
    ++stats_.accepted;
  }
  return verdict;
}

std::vector<std::pair<int, uint64_t>> IngressFilterChain::TakeBandCounts() {
  std::vector<std::pair<int, uint64_t>> out(band_counts_.begin(), band_counts_.end());
  band_counts_.clear();
  return out;
}

}  // namespace scio
