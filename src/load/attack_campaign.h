// AttackCampaign: scripted, seeded ingress-attack schedules.
//
// A FaultSchedule injects *infrastructure* failures (EMFILE, link flap); an
// AttackSchedule injects *adversarial traffic*. Each wave activates one
// attack kind over a half-open window [start, end), and every timing and
// source-port decision comes from the schedule's seeded RNG, so a campaign
// replays bit-for-bit — the property that makes defense regressions
// debuggable.
//
// Wave kinds:
//  - kSynFlood: spoofed SYNs (NetStack::RawSyn) at a Poisson rate from a
//    source-port band outside the real ephemeral range. They are never ACKed,
//    so each one pins a half-open slot until the SYN timeout; once the queue
//    saturates, benign SYNs are silently dropped.
//  - kSlowloris / kAbortChurn: real connections from an AbusiveFleet (they
//    need ports and a full handshake); the campaign owns one fleet per wave.
//  - kRuleBlowup: the operator-side failure mode of filtering itself — a
//    reactive blocklist balloons with narrow per-source DROP rules that
//    benign traffic must traverse without matching. The wave front-inserts
//    `rules` junk rules into the attached chain at `start` and removes them
//    at `end`; with no chain attached the wave is inert (an unfiltered server
//    has no rule set to bloat).

#ifndef SRC_LOAD_ATTACK_CAMPAIGN_H_
#define SRC_LOAD_ATTACK_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/load/abusive_clients.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace scio {

enum class AttackKind {
  kSynFlood,    // spoofed SYNs, never ACKed
  kSlowloris,   // real connections dribbling a request that never completes
  kAbortChurn,  // connect, then slam shut after the handshake
  kRuleBlowup,  // junk DROP rules front-inserted into the filter chain
};

struct AttackWave {
  AttackKind kind = AttackKind::kSynFlood;
  // Half-open activity window [start, end) in absolute simulation time.
  SimTime start = 0;
  SimTime end = 0;
  // kSynFlood: spoofed SYNs per second; kAbortChurn: connects per second.
  double rate = 0.0;
  // kSlowloris: concurrent connections to hold.
  int population = 0;
  // kSynFlood: spoofed source-port band [src_lo, src_hi). Keep it outside the
  // real ephemeral range so the band profile separates attack from benign.
  int src_lo = 1u << 20;
  int src_hi = (1u << 20) + (1u << 16);
  // kRuleBlowup: number of junk rules to front-insert.
  int rules = 0;
  // kSlowloris pacing (see AbusiveWorkload).
  SimDuration write_interval = Millis(400);
  SimDuration reconnect_delay = Millis(800);
  // kAbortChurn dwell between connect and abort.
  SimDuration abort_after = Millis(5);
};

struct AttackSchedule {
  std::string name = "calm";
  uint64_t seed = 7;
  std::vector<AttackWave> waves;

  AttackSchedule& Add(AttackWave wave) {
    waves.push_back(wave);
    return *this;
  }
  bool empty() const { return waves.empty(); }
};

// What the campaign actually launched, for reports and determinism gates.
struct AttackStats {
  uint64_t syns_sent = 0;             // spoofed SYNs put on the wire
  uint64_t slowloris_reconnects = 0;
  uint64_t slowloris_bytes = 0;
  uint64_t aborts_completed = 0;
  uint64_t junk_rules_installed = 0;
  uint64_t junk_rules_removed = 0;

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

class AttackCampaign {
 public:
  AttackCampaign(NetStack* net, std::shared_ptr<SimListener> listener,
                 AttackSchedule schedule);
  ~AttackCampaign();
  AttackCampaign(const AttackCampaign&) = delete;
  AttackCampaign& operator=(const AttackCampaign&) = delete;

  // Pre-schedules every wave. Call once, before the run starts.
  void Start();

  // Stop all fleets and withdraw any junk rules still installed (end of run;
  // idempotent — waves that already ended are unaffected).
  void Shutdown();

  bool enabled() const { return !schedule_.empty(); }
  const AttackSchedule& schedule() const { return schedule_; }

  // Fleet counters are folded in lazily so stats() is accurate whether or not
  // the waves have ended.
  AttackStats stats() const;

 private:
  void ScheduleSynFlood(const AttackWave& wave);
  void ScheduleRuleBlowup(const AttackWave& wave);
  void RemoveJunkRules();

  NetStack* net_;
  std::shared_ptr<SimListener> listener_;
  AttackSchedule schedule_;
  Rng rng_;
  std::vector<std::unique_ptr<AbusiveFleet>> fleets_;
  std::vector<int> junk_rule_ids_;  // installed and not yet withdrawn
  bool shutdown_ = false;
  AttackStats stats_;
};

}  // namespace scio

#endif  // SRC_LOAD_ATTACK_CAMPAIGN_H_
