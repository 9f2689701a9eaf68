// IngressFilterChain: a netfilter-style rule chain on the server's ingress
// path.
//
// Every inbound SYN (connect hook) and every inbound data packet (packet
// hook) traverses the chain in rule order until a rule matches; the first
// match decides ACCEPT, DROP, or RATE_LIMIT (token bucket: admit while
// tokens remain, drop beyond). An empty chain — and a missing one — accepts
// everything at zero cost, so the happy-path benches stay bit-identical.
//
// "Performance Evaluation of netfilter" measures per-rule traversal as a
// first-class overhead, so the chain charges filter_match_per_rule for every
// rule examined (and filter_drop_extra per executed drop) as
// interrupt-context debt under the kFilterMatch/kFilterDrop categories:
// filter CPU shows up in every attribution CSV and in the category-sum ==
// busy-time invariant like any other kernel work.
//
// Rules match on a source "address class" — a half-open port band
// [src_lo, src_hi). Real clients connect from the ephemeral allocator range;
// attack campaigns spoof sources from disjoint high bands, so a band is the
// model's equivalent of a CIDR block. The chain also counts SYN arrivals per
// fixed-width band (observation is part of filtering); AdaptiveDefense reads
// and resets those counts each tick to find the hot band.

#ifndef SRC_NET_FILTER_CHAIN_H_
#define SRC_NET_FILTER_CHAIN_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/sim_kernel.h"

namespace scio {

enum class FilterVerdict : uint8_t {
  kAccept,
  kDrop,
  kRateLimit,  // token bucket: ACCEPT while tokens remain, DROP beyond
};

// Default sustained admission rate for kRateLimit rules, in admissions per
// second (a token per admitted SYN or data packet, refilled continuously).
// 100/s holds a single abusive source band to ~1% of the paper's 10k-req/s
// saturation load while leaving interactive traffic untouched; tests pin
// this value, so changing it is an explicit decision, not a drive-by.
inline constexpr double kDefaultFilterRatePerSec = 100.0;

struct FilterRule {
  std::string label = "rule";
  // Source band [src_lo, src_hi); the defaults match every source.
  int src_lo = 0;
  int src_hi = std::numeric_limits<int>::max();
  // Which hooks the rule applies to. Connect-only rules are skipped (but
  // still traversed and charged) on the packet hook, and vice versa.
  bool on_connect = true;
  bool on_packet = false;
  FilterVerdict verdict = FilterVerdict::kAccept;
  // kRateLimit parameters: sustained admissions per second plus burst depth.
  double rate_per_sec = kDefaultFilterRatePerSec;
  double burst = 32.0;
};

// Chain-local observability (kernel-side counters live in KernelStats under
// filter.*; these are the per-run extras benchmark reports want).
struct FilterChainStats {
  uint64_t connect_evals = 0;
  uint64_t packet_evals = 0;
  uint64_t accepted = 0;
  uint64_t dropped = 0;             // explicit DROP verdicts
  uint64_t rate_limit_drops = 0;    // RATE_LIMIT buckets out of tokens
  uint64_t rules_inserted = 0;
  uint64_t rules_removed = 0;

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

class IngressFilterChain {
 public:
  // `band_width` is the granularity of the per-band SYN arrival counters.
  explicit IngressFilterChain(SimKernel* kernel, int band_width = 4096)
      : kernel_(kernel), band_width_(band_width < 1 ? 1 : band_width) {}
  IngressFilterChain(const IngressFilterChain&) = delete;
  IngressFilterChain& operator=(const IngressFilterChain&) = delete;

  // Add a rule at the tail / head of the chain. Returns the rule id (>= 1)
  // used by Remove(). Chain mutation is process-context work (an operator or
  // the defense controller editing the ruleset).
  int Append(FilterRule rule);
  int InsertFront(FilterRule rule);
  // Remove by id; false if the id is not in the chain.
  bool Remove(int id);
  size_t size() const { return entries_.size(); }

  // One SYN / one data packet hits the chain. Charges traversal (and drop)
  // costs as interrupt debt; returns kAccept or kDrop (a RATE_LIMIT match
  // resolves to one of the two).
  FilterVerdict EvalConnect(int src_port);
  FilterVerdict EvalPacket(int src_port);

  // Per-band SYN arrival counts accumulated since the last call, sorted by
  // band index; calling resets the window. Band b covers ports
  // [b*band_width, (b+1)*band_width).
  std::vector<std::pair<int, uint64_t>> TakeBandCounts();
  int band_width() const { return band_width_; }

  const FilterChainStats& stats() const { return stats_; }

 private:
  struct Entry {
    int id = 0;
    FilterRule rule;
    // Token-bucket state for kRateLimit rules, refilled lazily on sim time.
    double tokens = 0;
    SimTime last_refill = 0;
  };

  FilterVerdict Eval(int src_port, bool connect_hook);

  SimKernel* kernel_;
  int band_width_;
  int next_id_ = 1;
  std::vector<Entry> entries_;
  // Ordered map: the defense tick iterates bands, and simulation state must
  // not depend on hash-bucket order (sciolint D2).
  std::map<int, uint64_t> band_counts_;
  FilterChainStats stats_;
};

}  // namespace scio

#endif  // SRC_NET_FILTER_CHAIN_H_
