// Wait queues: how sleeping processes learn that a file changed state.
//
// This mirrors the Linux wait_queue mechanism the paper discusses in §6:
// a blocking poll() adds one waiter per polled file, and every addition and
// removal has a cost (Brown postulated this churn is where RT signals gain
// their advantage; ABL-6 measures it). Waiters are intrusive and must outlive
// their registration; Remove() is idempotent.
//
// Waiters come in two flavours, mirroring the 2.3-era WQ_FLAG_EXCLUSIVE fix
// for the thundering-herd accept problem:
//  - normal waiters (Add) are woken by every wake-up;
//  - exclusive waiters (AddExclusive) are woken one per WakeOne() call, in
//    FIFO registration order.
// WakeOne() is Linux's wake_up(): all normal waiters plus the first
// exclusive one. WakeAll() (wake_up_all) ignores exclusivity and wakes
// everyone. poll() and DP_POLL sleep on normal waiters only; an epoll or
// kqueue wait is the one exclusive waiter on its own device's queue. A
// shared listener's wake-one is File::set_wake_one, not a waiter flavour.

#ifndef SRC_KERNEL_WAIT_QUEUE_H_
#define SRC_KERNEL_WAIT_QUEUE_H_

#include <cstddef>

#include "src/kernel/small_vector.h"
#include "src/sim/event_callback.h"

namespace scio {

class WaitQueue;

class Waiter {
 public:
  explicit Waiter(EventCallback on_wake) : on_wake_(std::move(on_wake)) {}
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter();

  // Unregister from the current queue, if any. The waiter stays usable and
  // can be Add()ed again — this lets the poll sleep paths pool waiter
  // objects across sleep/wake cycles instead of reallocating them.
  void Detach();

  bool exclusive() const { return exclusive_; }

 private:
  friend class WaitQueue;
  EventCallback on_wake_;
  WaitQueue* queue_ = nullptr;  // non-null while registered
  bool exclusive_ = false;      // set by AddExclusive, cleared on removal
};

class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  ~WaitQueue();

  void Add(Waiter* w);
  // Register as an exclusive waiter (WQ_FLAG_EXCLUSIVE): woken one-at-a-time
  // by WakeOne(), in FIFO registration order.
  void AddExclusive(Waiter* w);
  void Remove(Waiter* w);

  // wake_up(): invoke every non-exclusive waiter's callback plus the first
  // exclusive waiter's (FIFO). Returns the number of callbacks invoked.
  // Callbacks must not add or remove waiters on this queue re-entrantly
  // (ours only set wake flags).
  size_t WakeOne();

  // wake_up_all(): invoke every registered waiter's callback, exclusive or
  // not. Returns the number of callbacks invoked.
  size_t WakeAll();

  size_t size() const { return waiters_.size(); }
  size_t exclusive_count() const { return exclusive_count_; }

 private:
  // A socket's queue holds one poll() sleeper at a time, inline.
  SmallVector<Waiter*, 1> waiters_;
  size_t exclusive_count_ = 0;
};

}  // namespace scio

#endif  // SRC_KERNEL_WAIT_QUEUE_H_
