#include "src/servers/phhttpd_kqueue.h"

#include <algorithm>

namespace scio {

PhhttpdKqueue::PhhttpdKqueue(Sys* sys, const StaticContent* content, ServerConfig config,
                             PhhttpdKqueueConfig kq_config)
    : HttpServerBase(sys, content, config), kq_config_(kq_config) {
  name_ = "phhttpd-kqueue";
}

int PhhttpdKqueue::SetupKqueue() {
  kqfd_ = sys().OpenKqueue();
  if (kqfd_ < 0) {
    return kqfd_;
  }
  events_.resize(static_cast<size_t>(kEventSlots));
  armed_.assign(static_cast<size_t>(sys().proc().fds().max_fds()), 0);
  // The listener's knote is level-triggered: while the backlog is non-empty
  // every kevent re-reports it, so a truncated DrainAccepts can never strand
  // queued connections.
  QueueChange(listener_fd_, kFiltRead, kEvAdd);
  return kqfd_;
}

void PhhttpdKqueue::QueueChange(int fd, int16_t filter, uint16_t flags) {
  pending_changes_.push_back(KEvent{fd, filter, flags, 0});
}

void PhhttpdKqueue::OnConnOpened(int fd) {
  // Both knotes up front: read live, write parked. Later phase flips are
  // enable/disable — idempotent and allocation-free.
  QueueChange(fd, kFiltRead, kEvAdd | clear_flag());
  QueueChange(fd, kFiltWrite, kEvAdd | kEvDisable | clear_flag());
}

void PhhttpdKqueue::OnConnPhaseChanged(int fd, Phase phase) {
  if (phase == Phase::kWriting) {
    QueueChange(fd, kFiltWrite, kEvEnable);
  } else {
    QueueChange(fd, kFiltWrite, kEvDisable);
  }
  // The read knote stays enabled in both phases: a peer abort mid-response
  // must surface (DispatchEvent drains reads while writing).
}

void PhhttpdKqueue::OnConnClosing(int fd) {
  // The fd number may be reused by the very next accept: purge queued
  // changes for it so a later flush cannot install knotes on the new file.
  pending_changes_.erase(
      std::remove_if(pending_changes_.begin(), pending_changes_.end(),
                     [fd](const KEvent& change) { return change.ident == fd; }),
      pending_changes_.end());
  if (armed_[static_cast<size_t>(fd)] == 0) {
    return;  // its EV_ADDs never flushed; nothing installed
  }
  armed_[static_cast<size_t>(fd)] = 0;
  // Delete both knotes immediately (pure changelist, cannot ENOMEM).
  const KEvent deletes[] = {
      KEvent{fd, kFiltRead, kEvDelete, 0},
      KEvent{fd, kFiltWrite, kEvDelete, 0},
  };
  if (sys().Kevent(kqfd_, deletes, {}, 0) < 0) {
    // Both knotes were registered together; a failure here means the core
    // already dropped them as stale. Either way they are gone.
  }
}

void PhhttpdKqueue::Step(SimTime until) {
  ChargeLoop();
  MaybeSweep();
  // The fused call: changelist + harvest in ONE trap. On ENOMEM the batch
  // stays queued (idempotent entries, retried verbatim next pass) and the
  // stale-but-valid knote set keeps serving.
  const int ready = sys().Kevent(kqfd_, pending_changes_, events_, WaitTimeoutMs(until));
  if (ready == kErrNoMem) {
    ++stats_.devpoll_write_retries;
    return;
  }
  // Anything else (events, timeout, EINTR) means the changelist was applied.
  for (const KEvent& change : pending_changes_) {
    if ((change.flags & kEvAdd) != 0) {
      armed_[static_cast<size_t>(change.ident)] = 1;
    }
  }
  pending_changes_.clear();
  if (ready == kErrIntr) {
    ++stats_.eintr_returns;
  }
  for (int i = 0; i < ready; ++i) {
    const KEvent& ev = events_[static_cast<size_t>(i)];
    PollEvents revents = ev.filter == kFiltRead ? kPollIn : kPollOut;
    if ((ev.flags & kEvEof) != 0) {
      revents |= kPollHup;
    }
    DispatchEvent(ev.ident, revents);
  }
}

}  // namespace scio
