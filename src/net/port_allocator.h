// Ephemeral port allocation with TIME-WAIT occupancy.
//
// The paper (§5) could keep only ~60000 sockets open at once because a closed
// socket spends sixty seconds in TIME-WAIT before its port can be reused, and
// had to pace benchmark runs around it. We reproduce that constraint: ports
// released into TIME-WAIT become reusable only after kDefaultTimeWait.

#ifndef SRC_NET_PORT_ALLOCATOR_H_
#define SRC_NET_PORT_ALLOCATOR_H_

#include <cstdint>
#include <utility>

#include "src/net/ring_queue.h"
#include "src/sim/time.h"

namespace scio {

inline constexpr SimDuration kDefaultTimeWait = Seconds(60);

class PortAllocator {
 public:
  // Ports [first, first + count) are available.
  PortAllocator(int first_port, int count) : first_port_(first_port), count_(count) {}

  // Returns a free port, or -1 if every port is open or in TIME-WAIT.
  int Acquire(SimTime now);

  // Return a port without TIME-WAIT (e.g. connection refused: no TCB existed).
  void ReleaseImmediate(int port);

  // Return a port through TIME-WAIT: reusable at now + kDefaultTimeWait.
  void ReleaseTimeWait(int port, SimTime now);

  int in_use() const { return in_use_; }
  int in_time_wait(SimTime now);
  int capacity() const { return count_; }

 private:
  void Reap(SimTime now);

  int first_port_;
  int count_;
  int next_fresh_ = 0;  // ports never used yet: first_port_ + next_fresh_
  int in_use_ = 0;
  RingQueue<int, 16> free_ports_;
  // FIFO by expiry: TIME-WAIT durations are constant so this stays sorted.
  RingQueue<std::pair<SimTime, int>, 16> time_wait_ports_;
};

}  // namespace scio

#endif  // SRC_NET_PORT_ALLOCATOR_H_
