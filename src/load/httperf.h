// HttperfGenerator: open-loop request generation, httperf style (§5).
//
// Connections are initiated at the target rate regardless of completions —
// that is what drives a saturated server into overload instead of politely
// backing off. Arrivals are evenly spaced with a small deterministic jitter
// (seeded) to avoid phase-locking with the server's loop.

#ifndef SRC_LOAD_HTTPERF_H_
#define SRC_LOAD_HTTPERF_H_

#include <deque>
#include <memory>

#include "src/kernel/paged_slab.h"
#include "src/load/active_client.h"
#include "src/load/workload.h"
#include "src/sim/rng.h"

namespace scio {

class HttperfGenerator {
 public:
  HttperfGenerator(NetStack* net, std::shared_ptr<SimListener> listener,
                   ActiveWorkload workload);

  // Schedule every arrival in [start_at, start_at + duration).
  void Start(SimTime start_at);

  // All connection records (valid after the run completes; records of
  // connections still in flight stay kPending).
  const std::deque<ConnRecord>& records() const { return records_; }
  size_t attempts() const { return records_.size(); }
  uint64_t retries() const { return retries_; }

 private:
  void Launch(ConnRecord* record);
  void MaybeRetry(ConnRecord* record, ConnOutcome outcome);

  NetStack* net_;
  ActiveWorkload workload_;
  Rng rng_;
  // Deque: push_back never invalidates the record pointers clients hold.
  std::deque<ConnRecord> records_;
  ClientContext context_;  // before clients_, which point at it
  // Every client launched, kept until the generator dies: a finished client
  // still holds its closed socket (see transport_plane.h on why that
  // matters).
  PagedVector<ActiveClient> clients_;
  uint64_t retries_ = 0;
};

}  // namespace scio

#endif  // SRC_LOAD_HTTPERF_H_
