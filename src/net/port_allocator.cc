#include "src/net/port_allocator.h"

namespace scio {

void PortAllocator::Reap(SimTime now) {
  while (!time_wait_ports_.empty() && time_wait_ports_.front().first <= now) {
    free_ports_.push_back(time_wait_ports_.front().second);
    time_wait_ports_.pop_front();
  }
}

int PortAllocator::Acquire(SimTime now) {
  Reap(now);
  int port = -1;
  if (!free_ports_.empty()) {
    port = free_ports_.front();
    free_ports_.pop_front();
  } else if (next_fresh_ < count_) {
    port = first_port_ + next_fresh_++;
  } else {
    return -1;
  }
  ++in_use_;
  return port;
}

void PortAllocator::ReleaseImmediate(int port) {
  --in_use_;
  free_ports_.push_back(port);
}

void PortAllocator::ReleaseTimeWait(int port, SimTime now) {
  --in_use_;
  time_wait_ports_.push_back({now + kDefaultTimeWait, port});
}

int PortAllocator::in_time_wait(SimTime now) {
  Reap(now);
  return static_cast<int>(time_wait_ports_.size());
}

}  // namespace scio
