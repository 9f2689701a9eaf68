#include "src/servers/thttpd_epoll.h"

#include <algorithm>

namespace scio {

ThttpdEpoll::ThttpdEpoll(Sys* sys, const StaticContent* content, ServerConfig config,
                         ThttpdEpollConfig ep_config)
    : HttpServerBase(sys, content, config), ep_config_(ep_config) {
  name_ = ep_config_.edge_triggered ? "thttpd-epoll-et" : "thttpd-epoll";
}

int ThttpdEpoll::SetupEpoll() {
  epfd_ = sys().OpenEpoll();
  if (epfd_ < 0) {
    return epfd_;
  }
  events_.resize(static_cast<size_t>(kEventSlots));
  CtlOrQueue(EpollOp::kAdd, listener_fd_, kPollIn);
  return epfd_;
}

void ThttpdEpoll::CtlOrQueue(EpollOp op, int fd, PollEvents events) {
  const uint16_t flags = fd == listener_fd_ ? uint16_t{0} : conn_flags();
  if (sys().EpollCtl(epfd_, op, fd, events, flags) == kErrNoMem) {
    // Interest-slab growth failed: queue the mutation and retry before the
    // next wait. Only ADD can allocate, so the retry cannot double-apply.
    ++stats_.devpoll_write_retries;
    pending_ctls_.push_back(PendingCtl{op, fd, events});
  }
}

void ThttpdEpoll::RetryPending() {
  if (pending_ctls_.empty()) {
    return;
  }
  std::vector<PendingCtl> retry;
  retry.swap(pending_ctls_);
  for (const PendingCtl& ctl : retry) {
    if (ctl.fd != listener_fd_ && !HasConn(ctl.fd)) {
      continue;  // connection closed while the ctl was queued
    }
    CtlOrQueue(ctl.op, ctl.fd, ctl.events);
  }
}

void ThttpdEpoll::OnConnOpened(int fd) { CtlOrQueue(EpollOp::kAdd, fd, kPollIn); }

void ThttpdEpoll::OnConnPhaseChanged(int fd, Phase phase) {
  CtlOrQueue(EpollOp::kMod, fd, phase == Phase::kWriting ? kPollOut : kPollIn);
}

void ThttpdEpoll::OnConnClosing(int fd) {
  // Purge any queued mutation for the fd first: its number may be reused by
  // the very next accept, and a late-retried ADD would bind the wrong file.
  pending_ctls_.erase(
      std::remove_if(pending_ctls_.begin(), pending_ctls_.end(),
                     [fd](const PendingCtl& ctl) { return ctl.fd == fd; }),
      pending_ctls_.end());
  // DEL before close is proper usage; the core would also drop the interest
  // on its own at the next harvest (it follows the file, not the number).
  if (sys().EpollCtl(epfd_, EpollOp::kDel, fd, 0) != 0) {
    // Never registered (its ADD was still queued on ENOMEM): nothing to do.
  }
}

void ThttpdEpoll::Step(SimTime until) {
  ChargeLoop();
  MaybeSweep();
  RetryPending();
  const int ready = sys().EpollWait(epfd_, events_.data(), static_cast<int>(events_.size()),
                                    WaitTimeoutMs(until));
  if (ready == kErrIntr) {
    ++stats_.eintr_returns;
  }
  for (int i = 0; i < ready; ++i) {
    DispatchEvent(events_[static_cast<size_t>(i)].fd, events_[static_cast<size_t>(i)].revents);
  }
}

}  // namespace scio
