#include "src/servers/thttpd_devpoll.h"

namespace scio {

ThttpdDevPoll::ThttpdDevPoll(Sys* sys, const StaticContent* content, ServerConfig config,
                             ThttpdDevPollConfig dp_config)
    : HttpServerBase(sys, content, config), dp_config_(dp_config) {
  name_ = "thttpd-devpoll";
}

int ThttpdDevPoll::SetupDevPoll() {
  dpfd_ = sys().OpenDevPoll(dp_config_.devpoll);
  if (dpfd_ < 0) {
    return dpfd_;
  }
  if (dp_config_.use_mmap_results) {
    if (sys().DevPollAlloc(dpfd_, kEventSlots) != 0) {
      return -1;
    }
    result_area_ = sys().DevPollMmap(dpfd_);
    if (result_area_ == nullptr) {
      return -1;
    }
  } else {
    result_buffer_.resize(static_cast<size_t>(kEventSlots));
  }
  QueueUpdate(listener_fd_, kPollIn);
  return dpfd_;
}

void ThttpdDevPoll::QueueUpdate(int fd, PollEvents events) {
  pending_updates_.push_back(PollFd{fd, events, 0});
}

bool ThttpdDevPoll::FlushUpdates() {
  if (pending_updates_.empty()) {
    return true;
  }
  const long rc = sys().DevPollWrite(dpfd_, pending_updates_);
  if (rc < 0) {
    // ENOMEM under memory pressure: the write failed atomically, so keep the
    // batch queued and retry on the next loop pass. Meanwhile DP_POLL runs
    // with the previous (stale but valid) interest set.
    ++stats_.devpoll_write_retries;
    return false;
  }
  pending_updates_.clear();
  return true;
}

void ThttpdDevPoll::OnConnOpened(int fd) { QueueUpdate(fd, kPollIn); }

void ThttpdDevPoll::OnConnPhaseChanged(int fd, Phase phase) {
  QueueUpdate(fd, phase == Phase::kWriting ? kPollOut : kPollIn);
}

void ThttpdDevPoll::OnConnClosing(int fd) {
  // Remove the interest *before* close so no stale interest lingers (proper
  // /dev/poll usage; the stale path is exercised by tests instead).
  QueueUpdate(fd, kPollRemove);
  // The fd is about to be closed; purge any queued update for it first so a
  // later flush cannot resurrect an interest for a reused fd number.
  // Compacted in place: connection close is a hot path under abusive loads.
  PollFd removal{};
  bool have_removal = false;
  auto out = pending_updates_.begin();
  for (const PollFd& update : pending_updates_) {
    if (update.fd != fd) {
      *out++ = update;
    } else if ((update.events & kPollRemove) != 0) {
      removal = update;
      have_removal = true;
    }
  }
  pending_updates_.erase(out, pending_updates_.end());
  if (have_removal) {
    pending_updates_.push_back(removal);
  }
  // Flush immediately: after return the fd number may be reused by accept().
  FlushUpdates();
}

void ThttpdDevPoll::PollAndDispatch(SimTime until) {
  DvPoll args;
  args.dp_fds = dp_config_.use_mmap_results ? nullptr : result_buffer_.data();
  args.dp_nfds = kEventSlots;
  args.dp_timeout = WaitTimeoutMs(until);

  int ready;
  if (dp_config_.use_fused_ioctl && !pending_updates_.empty()) {
    ready = sys().DevPollWritePoll(dpfd_, pending_updates_, &args);
    if (ready == kErrNoMem) {
      // The write half failed before anything was applied: keep the batch
      // for the next pass (no poll happened either).
      ++stats_.devpoll_write_retries;
      return;
    }
    pending_updates_.clear();
  } else {
    FlushUpdates();
    ready = sys().DevPollPoll(dpfd_, &args);
  }
  if (ready == kErrIntr) {
    ++stats_.eintr_returns;
  }
  const PollFd* results = dp_config_.use_mmap_results ? result_area_ : result_buffer_.data();
  for (int i = 0; i < ready; ++i) {
    DispatchEvent(results[i].fd, results[i].revents);
  }
}

void ThttpdDevPoll::Step(SimTime until) {
  ChargeLoop();
  MaybeSweep();
  PollAndDispatch(until);
}

}  // namespace scio
