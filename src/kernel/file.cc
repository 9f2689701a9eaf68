#include "src/kernel/file.h"

#include <algorithm>

#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"

namespace scio {

// sciolint: hotpath
void File::NotifyStatus(PollEvents mask) {
  // 1. Backmap hints and other listeners run first (driver context): on a
  //    wake-one file the next one in turn, picked before the call because
  //    the callback may remove listeners; otherwise all of them, from a
  //    snapshot, because hint marking can wake processes whose reaction
  //    could mutate the list. The snapshot lives on the stack unless the
  //    file has over 8 listeners.
  if (!listeners_.empty()) {
    if (wake_one_) {
      StatusListener* l = listeners_[listener_rr_next_ % listeners_.size()];
      listener_rr_next_ = (listener_rr_next_ + 1) % listeners_.size();
      l->OnFileStatus(*this, mask);
    } else {
      const SmallVector<StatusListener*, 8> snapshot(listeners_.begin(), listeners_.size());
      for (StatusListener* l : snapshot) {
        l->OnFileStatus(*this, mask);
      }
    }
  }
  // 2. Queue the RT signal, if armed (paper §2: the kernel raises the
  //    assigned signal whenever a read/write/close operation completes):
  //    to every subscriber, or on a wake-one file to the next one in turn.
  if (!async_subs_.empty()) {
    if (wake_one_) {
      const AsyncSub& sub = async_subs_[async_rr_next_ % async_subs_.size()];
      async_rr_next_ = (async_rr_next_ + 1) % async_subs_.size();
      kernel_->QueueRtSignal(*sub.proc, SigInfo{sub.signo, fd_number_, mask});
    } else {
      for (const AsyncSub& sub : async_subs_) {
        kernel_->QueueRtSignal(*sub.proc, SigInfo{sub.signo, fd_number_, mask});
      }
    }
  }
  // 3. Wake blocked poll()/DP_POLL/sigwaitinfo sleepers. wake_up(), not
  //    wake_up_all(): poll() and DP_POLL register plain waiters, which all
  //    wake; only an epoll or kqueue device's own queue holds an exclusive
  //    waiter, its one Wait sleeper.
  poll_wait_.WakeOne();
}

void File::AddStatusListener(StatusListener* listener) { listeners_.push_back(listener); }

void File::RemoveStatusListener(StatusListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

void File::SetAsyncSignal(Process* owner, int signo) {
  if (owner == nullptr) {
    // Legacy disarm: drop every subscription.
    async_subs_.clear();
    async_rr_next_ = 0;
    return;
  }
  for (AsyncSub* it = async_subs_.begin(); it != async_subs_.end(); ++it) {
    if (it->proc == owner) {
      if (signo == 0) {
        async_subs_.erase(it);
        async_rr_next_ = 0;
      } else {
        it->signo = signo;
      }
      return;
    }
  }
  if (signo != 0) {
    async_subs_.push_back(AsyncSub{owner, signo});
  }
}

}  // namespace scio
