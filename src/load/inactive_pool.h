// InactivePool: the constant population of high-latency connections (§5).
//
// "We add client programs that do not complete an http request. To keep the
// number of high-latency clients constant, these clients reopen their
// connection if the server times them out."
//
// Each member connects and then dribbles an eternally-unfinished request one
// byte at a time (modem-grade behaviour, per the Banga/Druschel workloads
// the paper cites): the connection stays alive, occupies an interest-set
// slot, and generates a steady stream of kernel events the server must
// triage. With trickling disabled the member just sits silent until the
// server's idle timeout kills it, then reconnects.

#ifndef SRC_LOAD_INACTIVE_POOL_H_
#define SRC_LOAD_INACTIVE_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/load/workload.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/net/socket.h"
#include "src/sim/rng.h"

namespace scio {

class InactivePool {
 public:
  InactivePool(NetStack* net, std::shared_ptr<SimListener> listener,
               InactiveWorkload workload);
  ~InactivePool();

  // Open the population. Members connect immediately (staggered a little so
  // the server doesn't see one giant accept burst).
  void Start();

  // Stop reconnecting and close everything (end of run).
  void Shutdown();

  int connected_now() const;
  uint64_t reconnects() const { return reconnects_; }
  uint64_t trickle_bytes_sent() const { return trickle_bytes_; }

 private:
  struct Member {
    std::shared_ptr<SimSocket> socket;
    size_t next_byte = 0;  // offset into the never-ending request
    EventHandle trickle_timer;
    EventHandle reconnect_timer;
  };

  void ConnectMember(size_t idx);
  void ScheduleReconnect(size_t idx);
  void ScheduleTrickle(size_t idx);
  void SendTrickleByte(size_t idx);

  NetStack* net_;
  std::shared_ptr<SimListener> listener_;
  InactiveWorkload workload_;
  Rng rng_;
  std::string eternal_request_;  // header that never terminates
  std::vector<Member> members_;
  bool shutdown_ = false;
  uint64_t reconnects_ = 0;
  uint64_t trickle_bytes_ = 0;
};

}  // namespace scio

#endif  // SRC_LOAD_INACTIVE_POOL_H_
