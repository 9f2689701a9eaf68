#include "src/core/epoll_core.h"

#include "src/kernel/fd_table.h"
#include "src/kernel/sys_errno.h"

namespace scio {

EpollDevice::EpollDevice(SimKernel* kernel, Process* owner)
    : File(kernel),
      owner_(owner),
      items_(),
      ready_(&items_),
      waiter_([proc = owner] { proc->Wake(); }) {
  items_.set_limit(static_cast<size_t>(owner->fds().max_fds()));
  items_.set_mem_ledger(&kernel->mem(), MemSys::kInterests);
}

EpollDevice::~EpollDevice() {
  if (!closed_) {
    OnFdClose();
  }
}

void EpollDevice::OnFdClose() {
  closed_ = true;
  waiter_.Detach();
  // Collect first: ForEach forbids releasing slots mid-walk.
  std::vector<size_t> live;
  items_.ForEach([&](size_t idx, EpollItem&) { live.push_back(idx); });
  for (size_t idx : live) {
    RemoveItem(idx);
  }
}

void EpollDevice::RemoveItem(size_t idx) {
  EpollItem& item = items_.At(idx);
  if (item.ready.linked()) {
    ready_.Unlink(static_cast<int32_t>(idx));
  }
  if (std::shared_ptr<File> file = item.file.lock()) {
    file->RemoveStatusListener(this);
  }
  item.file.reset();  // the parked slot must not pin the file
  items_.ReleaseAt(idx);
}

void EpollDevice::PushReady(size_t idx, bool interrupt) {
  EpollItem& item = items_.At(idx);
  if (item.disabled || item.ready.linked()) {
    return;  // dormant oneshot, or already pending — no re-queue
  }
  ready_.PushBack(static_cast<int32_t>(idx));
  ++kernel()->stats().epoll_ready_enqueues;
  if (interrupt) {
    kernel()->ChargeDebt(kernel()->cost().epoll_ready_enqueue, ChargeCat::kEpollReady);
  } else {
    kernel()->Charge(kernel()->cost().epoll_ready_enqueue, ChargeCat::kEpollReady);
  }
  // wake_up(): all composed pollers plus exactly one exclusive Wait sleeper.
  poll_wait().WakeOne();
}

void EpollDevice::ProbeAtRegister(size_t idx) {
  EpollItem& item = items_.At(idx);
  std::shared_ptr<File> file = item.file.lock();
  if (file == nullptr) {
    return;
  }
  // One driver poll at registration (process context): pre-existing
  // readiness seeds the ready list, so edge-triggered users never need the
  // probe-after-arm dance the RT-signal servers do.
  kernel()->Charge(kernel()->cost().poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
  const PollEvents mask =
      file->PollMask() & (item.events | kPollAlwaysReported);
  if (mask != 0) {
    PushReady(idx, /*interrupt=*/false);
  }
}

int EpollDevice::Ctl(EpollOp op, int fd, PollEvents events, uint16_t flags) {
  SyscallTraceScope trace(kernel(), "epoll_ctl", fd);
  KernelStats& stats = kernel()->stats();
  ++stats.syscalls;
  ++stats.epoll_ctls;
  kernel()->Charge({{ChargeCat::kSyscallEntry, kernel()->cost().syscall_entry},
                    {ChargeCat::kEpollCtl, kernel()->cost().epoll_ctl_extra}});
  if (closed_ || fd < 0 || static_cast<size_t>(fd) >= items_.limit()) {
    return -1;
  }
  const size_t idx = static_cast<size_t>(fd);
  std::shared_ptr<File> current = owner_->fds().Get(fd);

  switch (op) {
    case EpollOp::kAdd: {
      if (current == nullptr || items_.Contains(idx)) {
        return -1;  // EBADF / EEXIST
      }
      // Interest-slab growth allocates kernel memory: fails under an
      // injected ENOMEM window, before any state changes.
      if (FaultPlane* fault = kernel()->fault();
          fault != nullptr && fault->InjectInterestEnomem()) {
        return kErrNoMem;
      }
      EpollItem& item = items_.EmplaceAt(idx);
      item.events = events;
      item.flags = flags;
      item.disabled = false;
      item.file = current;
      current->AddStatusListener(this);
      ProbeAtRegister(idx);
      return 0;
    }
    case EpollOp::kMod: {
      EpollItem* item = items_.Get(idx);
      if (item == nullptr) {
        return -1;  // ENOENT
      }
      if (current == nullptr || current != item->file.lock()) {
        // The fd no longer names the registered file: the stale interest is
        // dropped (it follows the dead file) and the MOD fails.
        ++stats.epoll_stale_drops;
        RemoveItem(idx);
        return -1;
      }
      item->events = events;
      item->flags = flags;
      item->disabled = false;  // MOD re-arms a fired oneshot
      ProbeAtRegister(idx);
      return 0;
    }
    case EpollOp::kDel: {
      if (!items_.Contains(idx)) {
        return -1;  // ENOENT
      }
      RemoveItem(idx);
      return 0;
    }
  }
  return -1;
}

int EpollDevice::HarvestOnce(PollFd* out, int max) {
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  // Visit at most the entries present at entry: a level-triggered interest
  // moved to the back must not be revisited in the same harvest.
  size_t budget = ready_.size();
  int n = 0;
  int32_t cur = ready_.front();
  while (budget-- > 0 && cur != kNilIndex && n < max) {
    const int32_t next = ready_.NextOf(cur);  // capture before any unlink
    const size_t idx = static_cast<size_t>(cur);
    EpollItem& item = items_.At(idx);
    kernel()->Charge(cost.epoll_wait_per_event, ChargeCat::kEpollWait);

    std::shared_ptr<File> file = owner_->fds().Get(static_cast<int>(idx));
    if (file == nullptr || file != item.file.lock()) {
      // fd closed or reused since the enqueue: the interest dies with the
      // file it was bound to.
      ++stats.epoll_stale_drops;
      RemoveItem(idx);
      cur = next;
      continue;
    }
    // Revalidate against the driver — the ready list is a hint, not truth
    // (a previously queued fd may have been drained by another worker).
    kernel()->Charge(cost.poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
    const PollEvents revents =
        file->PollMask() & (item.events | kPollAlwaysReported);
    if (revents == 0) {
      ++stats.epoll_spurious_ready;
      ready_.Unlink(cur);
      cur = next;
      continue;
    }

    out[n].fd = static_cast<int>(idx);
    out[n].events = item.events;
    out[n].revents = revents;
    ++n;
    ++stats.epoll_events_delivered;
    kernel()->Charge(cost.epoll_copyout_per_event, ChargeCat::kResultCopyout);

    if ((item.flags & kEpollOneshot) != 0) {
      // Delivered once; dormant until EPOLL_CTL_MOD re-arms it.
      item.disabled = true;
      ready_.Unlink(cur);
    } else if ((item.flags & kEpollEdge) != 0) {
      // Edge-triggered: consumed; only a fresh driver notification re-queues.
      ready_.Unlink(cur);
    } else {
      // Level-triggered: stays ready until the driver says otherwise. Move
      // to the back so a truncated harvest round-robins instead of starving
      // the tail.
      ready_.MoveToBack(cur);
    }
    cur = next;
  }
  kernel()->TraceInstant(TraceEventType::kScan, "epoll_harvest",
                         static_cast<int32_t>(ready_.size()), n);
  return n;
}

// sciolint: hotpath
int EpollDevice::Wait(PollFd* out, int max, int timeout_ms) {
  SyscallTraceScope trace(kernel(), "epoll_wait", max);
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  ++stats.syscalls;
  ++stats.epoll_waits;
  kernel()->Charge(cost.syscall_entry, ChargeCat::kSyscallEntry);
  if (closed_ || out == nullptr || max <= 0) {
    return -1;
  }
  // Sleep as ONE exclusive waiter on the device's own queue — this is the
  // structural win over poll(): one wait-queue registration per sleep,
  // regardless of interest-set size, and a wake_up() rouses one sharer. The
  // waiter is a pooled member (constructed with the device) so the wait
  // stays allocation-free.
  auto arm = [&] {
    poll_wait().AddExclusive(&waiter_);
    ++stats.wait_exclusive_adds;
    ++stats.poll_waitqueue_adds;
    kernel()->Charge(cost.poll_waitqueue_add_per_fd, ChargeCat::kWaitqueue);
  };
  auto disarm = [&] {
    waiter_.Detach();
    ++stats.poll_waitqueue_removes;
    kernel()->Charge(cost.poll_waitqueue_remove_per_fd, ChargeCat::kWaitqueue);
  };
  const int rc = kernel()->WaitFor(
      *owner_, timeout_ms, [&] { return HarvestOnce(out, max); }, arm, disarm);
  trace.set_result(rc);
  return rc;
}

PollEvents EpollDevice::PollMask() const {
  // Composable: the epoll fd reads ready when a wait would return now.
  return ready_.empty() ? static_cast<PollEvents>(0) : kPollIn;
}

void EpollDevice::OnFileStatus(File& file, PollEvents mask) {
  if (closed_) {
    return;
  }
  const int fd = file.fd_number();
  if (fd < 0) {
    return;
  }
  EpollItem* item = items_.Get(static_cast<size_t>(fd));
  if (item == nullptr || item->file.lock().get() != &file) {
    return;  // fd number reused; not our registration
  }
  if ((mask & (item->events | kPollAlwaysReported)) == 0) {
    return;  // state change the interest doesn't care about
  }
  PushReady(static_cast<size_t>(fd), /*interrupt=*/true);
}

}  // namespace scio
