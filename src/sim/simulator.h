// The discrete-event simulator: a virtual clock plus an event queue.
//
// The simulator is single-threaded and cooperative. Server code runs *inside*
// blocking syscalls: when the simulated kernel needs to wait for an event, it
// calls StepUntil(), which executes pending events (packet arrivals, client
// timers, ...) until a wake condition is met or a deadline passes. When server
// code consumes virtual CPU, the kernel calls AdvanceTo(), which executes any
// events that fall inside the busy window before moving the clock forward —
// so network activity correctly overlaps server computation.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/func_ref.h"
#include "src/sim/time.h"

namespace scio {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule a callback at an absolute time (>= now). Callbacks travel by
  // rvalue reference down to the queue, which moves them once into a node.
  EventHandle ScheduleAt(SimTime when, EventQueue::Callback&& cb) {
    return queue_.Schedule(when < now_ ? now_ : when, std::move(cb));
  }

  // Schedule a callback `delay` from now.
  EventHandle ScheduleAfter(SimDuration delay, EventQueue::Callback&& cb) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Run events (advancing the clock) until `stop()` returns true or the clock
  // would pass `deadline`. Returns true if `stop` was satisfied, false on
  // deadline/queue exhaustion. On a deadline return, now() == deadline.
  // `stop` is a non-owning reference: it is only invoked within this call.
  bool StepUntil(FuncRef<bool()> stop, SimTime deadline);

  // Execute all events with time <= target, then set now() = target.
  void AdvanceTo(SimTime target);

  // Execute everything in the queue (bounded by `limit` events, as a runaway
  // guard). Returns the number of events executed.
  uint64_t RunAll(uint64_t limit = UINT64_MAX);

  // Drop all pending events without running them. The simulator's queue can
  // outlive the world it simulates (it is typically declared first, destroyed
  // last), and pending callbacks often own world objects — e.g. in-flight
  // packet deliveries holding sockets that release ports on destruction. Call
  // this during teardown, while the kernel and net stack are still alive.
  void DiscardPending() { queue_.Clear(); }

  uint64_t executed_count() const { return queue_.executed_count(); }
  size_t pending_count() const { return queue_.size(); }

  // Direct queue access (byte-ledger hookup, pool introspection).
  EventQueue& queue() { return queue_; }

 private:
  SimTime now_ = 0;
  EventQueue queue_;
};

}  // namespace scio

#endif  // SRC_SIM_SIMULATOR_H_
