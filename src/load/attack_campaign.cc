#include "src/load/attack_campaign.h"

#include "src/net/filter_chain.h"

namespace scio {

std::vector<std::pair<std::string, uint64_t>> AttackStats::ToRows() const {
  return {
      {"attack.syns_sent", syns_sent},
      {"attack.slowloris_reconnects", slowloris_reconnects},
      {"attack.slowloris_bytes", slowloris_bytes},
      {"attack.aborts_completed", aborts_completed},
      {"attack.junk_rules_installed", junk_rules_installed},
      {"attack.junk_rules_removed", junk_rules_removed},
  };
}

AttackCampaign::AttackCampaign(NetStack* net, std::shared_ptr<SimListener> listener,
                               AttackSchedule schedule)
    : net_(net),
      listener_(std::move(listener)),
      schedule_(std::move(schedule)),
      rng_(schedule_.seed) {}

AttackCampaign::~AttackCampaign() { Shutdown(); }

void AttackCampaign::Start() {
  // Waves are processed in schedule order and all RNG draws happen here or in
  // scheduling order, so one seed fixes the whole campaign.
  for (const AttackWave& wave : schedule_.waves) {
    switch (wave.kind) {
      case AttackKind::kSynFlood:
        ScheduleSynFlood(wave);
        break;
      case AttackKind::kSlowloris: {
        AbusiveWorkload w;
        w.slowloris_connections = wave.population;
        w.slowloris_write_interval = wave.write_interval;
        w.slowloris_reconnect_delay = wave.reconnect_delay;
        w.seed = rng_.NextU64();
        fleets_.push_back(std::make_unique<AbusiveFleet>(net_, listener_, w));
        fleets_.back()->Start(wave.start, wave.end - wave.start);
        break;
      }
      case AttackKind::kAbortChurn: {
        AbusiveWorkload w;
        w.abort_churn_rate = wave.rate;
        w.abort_after = wave.abort_after;
        w.seed = rng_.NextU64();
        fleets_.push_back(std::make_unique<AbusiveFleet>(net_, listener_, w));
        fleets_.back()->Start(wave.start, wave.end - wave.start);
        break;
      }
      case AttackKind::kRuleBlowup:
        ScheduleRuleBlowup(wave);
        break;
    }
  }
}

void AttackCampaign::ScheduleSynFlood(const AttackWave& wave) {
  if (wave.rate <= 0) {
    return;
  }
  Simulator& sim = net_->kernel()->sim();
  const double gap_ns = 1e9 / wave.rate;
  double clock = rng_.Exponential(gap_ns);
  while (clock < static_cast<double>(wave.end - wave.start)) {
    // Spoofed source drawn per SYN: the flood sprays the whole band, which is
    // what makes per-source rules useless and band aggregation necessary.
    const int src_port = static_cast<int>(rng_.UniformInt(wave.src_lo, wave.src_hi - 1));
    sim.ScheduleAt(wave.start + static_cast<SimTime>(clock), [this, src_port] {
      if (!shutdown_) {
        ++stats_.syns_sent;
        net_->RawSyn(listener_, src_port);
      }
    });
    clock += rng_.Exponential(gap_ns);
  }
}

void AttackCampaign::ScheduleRuleBlowup(const AttackWave& wave) {
  if (wave.rules <= 0) {
    return;
  }
  Simulator& sim = net_->kernel()->sim();
  const int count = wave.rules;
  sim.ScheduleAt(wave.start, [this, count] {
    IngressFilterChain* filter = net_->filter();
    if (shutdown_ || filter == nullptr) {
      return;
    }
    // Narrow dead-band DROP entries, front-inserted the way a reactive
    // blocklist prepends its newest discovery. None of them matches live
    // traffic; their entire effect is traversal cost ahead of useful rules.
    for (int i = 0; i < count; ++i) {
      FilterRule rule;
      rule.label = "junk";
      rule.src_lo = (1 << 21) + i * 64;
      rule.src_hi = rule.src_lo + 64;
      rule.verdict = FilterVerdict::kDrop;
      rule.on_connect = true;
      rule.on_packet = true;
      junk_rule_ids_.push_back(filter->InsertFront(rule));
      ++stats_.junk_rules_installed;
    }
  });
  sim.ScheduleAt(wave.end, [this] {
    if (!shutdown_) {
      RemoveJunkRules();
    }
  });
}

void AttackCampaign::RemoveJunkRules() {
  IngressFilterChain* filter = net_->filter();
  if (filter != nullptr) {
    for (int id : junk_rule_ids_) {
      if (filter->Remove(id)) {
        ++stats_.junk_rules_removed;
      }
    }
  }
  junk_rule_ids_.clear();
}

void AttackCampaign::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  for (std::unique_ptr<AbusiveFleet>& fleet : fleets_) {
    fleet->Shutdown();
  }
  RemoveJunkRules();
}

AttackStats AttackCampaign::stats() const {
  AttackStats out = stats_;
  for (const std::unique_ptr<AbusiveFleet>& fleet : fleets_) {
    out.slowloris_reconnects += fleet->slowloris_reconnects();
    out.slowloris_bytes += fleet->slowloris_bytes();
    out.aborts_completed += fleet->aborts_completed();
  }
  return out;
}

}  // namespace scio
