// HttperfGenerator: open-loop request generation, httperf style (§5).
//
// Connections are initiated at the target rate regardless of completions —
// that is what drives a saturated server into overload instead of politely
// backing off. Arrivals are evenly spaced with a small deterministic jitter
// (seeded) to avoid phase-locking with the server's loop.

#ifndef SRC_LOAD_HTTPERF_H_
#define SRC_LOAD_HTTPERF_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/kernel/paged_slab.h"
#include "src/load/active_client.h"
#include "src/load/workload.h"
#include "src/sim/rng.h"

namespace scio {

class HttperfGenerator {
 public:
  HttperfGenerator(NetStack* net, std::shared_ptr<SimListener> listener,
                   ActiveWorkload workload);

  // Schedule every arrival in [start_at, start_at + duration). Call once.
  void Start(SimTime start_at);

  // All connection records (valid after the run completes; records of
  // connections still in flight stay kPending).
  const std::deque<ConnRecord>& records() const { return records_; }
  size_t attempts() const { return records_.size(); }
  uint64_t retries() const { return retries_; }

  // Client slots occupied now: connections in flight, plus finished clients
  // that still hold a closed socket the transport plane modelled.
  size_t clients_in_use() const { return clients_.size(); }

 private:
  void Launch(ConnRecord* record);
  void OnClientDone(long slot, ConnOutcome outcome);
  void ParkReleasedClients();
  void MaybeRetry(ConnRecord* record, ConnOutcome outcome);

  NetStack* net_;
  ActiveWorkload workload_;
  Rng rng_;
  // Deque: push_back never invalidates the record pointers clients hold.
  std::deque<ConnRecord> records_;
  ClientContext context_;  // before clients_, which point at it
  // A client holds its slot while it connects. A finished client keeps its
  // socket, and so its slot, only while the transport plane models the
  // socket (see transport_plane.h); otherwise it parks, and Launch reuses
  // the lowest free slot. Slots therefore follow the connections in flight
  // plus those the plane still models, not the attempts.
  PagedStore<ActiveClient, 64> clients_;
  // Slots of finished clients that kept a modelled socket. Launch parks
  // those the plane has released whenever the list has doubled since the
  // last pass, so the passes cost O(1) per connection.
  static constexpr size_t kFirstPark = 64;
  std::vector<long> modelled_;
  size_t park_at_ = kFirstPark;
  uint64_t retries_ = 0;
};

}  // namespace scio

#endif  // SRC_LOAD_HTTPERF_H_
