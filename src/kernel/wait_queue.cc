#include "src/kernel/wait_queue.h"

#include <algorithm>
#include <cassert>

namespace scio {

Waiter::~Waiter() {
  if (queue_ != nullptr) {
    queue_->Remove(this);
  }
}

void Waiter::Detach() {
  if (queue_ != nullptr) {
    queue_->Remove(this);
  }
}

WaitQueue::~WaitQueue() {
  // Orphan any still-registered waiters so their destructors don't touch us.
  for (Waiter* w : waiters_) {
    w->queue_ = nullptr;
    w->exclusive_ = false;
  }
}

void WaitQueue::Add(Waiter* w) {
  assert(w->queue_ == nullptr && "waiter already registered");
  w->queue_ = this;
  w->exclusive_ = false;
  waiters_.push_back(w);
}

void WaitQueue::AddExclusive(Waiter* w) {
  assert(w->queue_ == nullptr && "waiter already registered");
  w->queue_ = this;
  w->exclusive_ = true;
  waiters_.push_back(w);
  ++exclusive_count_;
}

void WaitQueue::Remove(Waiter* w) {
  if (w->queue_ != this) {
    return;
  }
  w->queue_ = nullptr;
  if (w->exclusive_) {
    w->exclusive_ = false;
    --exclusive_count_;
  }
  waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), w), waiters_.end());
}

// sciolint: hotpath
size_t WaitQueue::WakeOne() {
  // Copy: a wake callback may (indirectly) destroy a waiter. The copy lives
  // on the stack unless over 8 waiters are registered.
  const SmallVector<Waiter*, 8> snapshot(waiters_.begin(), waiters_.size());
  size_t woken = 0;
  bool exclusive_woken = false;
  for (Waiter* w : snapshot) {
    if (w->queue_ != this) {
      continue;  // removed by an earlier callback in this pass
    }
    if (w->exclusive_) {
      if (exclusive_woken) {
        continue;  // one exclusive waiter per wake_up()
      }
      exclusive_woken = true;
    }
    w->on_wake_();
    ++woken;
  }
  return woken;
}

size_t WaitQueue::WakeAll() {
  // Copy: a wake callback may (indirectly) destroy a waiter.
  const SmallVector<Waiter*, 8> snapshot(waiters_.begin(), waiters_.size());
  size_t woken = 0;
  for (Waiter* w : snapshot) {
    if (w->queue_ == this) {
      w->on_wake_();
      ++woken;
    }
  }
  return woken;
}

}  // namespace scio
