#include "src/core/kqueue_core.h"

#include "src/kernel/fd_table.h"
#include "src/kernel/sys_errno.h"

namespace scio {

namespace {
// The poll bits one filter watches (plus the always-reported error bits).
PollEvents FilterMask(int16_t filter) {
  return (filter == kFiltRead ? kPollIn : kPollOut) | kPollAlwaysReported;
}
}  // namespace

KqueueDevice::KqueueDevice(SimKernel* kernel, Process* owner)
    : File(kernel),
      owner_(owner),
      slots_(),
      read_active_(&slots_),
      write_active_(&slots_),
      waiter_([proc = owner] { proc->Wake(); }) {
  slots_.set_limit(static_cast<size_t>(owner->fds().max_fds()));
  slots_.set_mem_ledger(&kernel->mem(), MemSys::kInterests);
}

KqueueDevice::~KqueueDevice() {
  if (!closed_) {
    OnFdClose();
  }
}

void KqueueDevice::OnFdClose() {
  closed_ = true;
  waiter_.Detach();
  std::vector<size_t> live;
  slots_.ForEach([&](size_t idx, KnoteSlot&) { live.push_back(idx); });
  for (size_t idx : live) {
    RemoveSlot(idx);
  }
}

size_t KqueueDevice::knote_count() const {
  size_t n = 0;
  slots_.ForEach([&](size_t, const KnoteSlot& slot) {
    n += (slot.read.registered ? 1 : 0) + (slot.write.registered ? 1 : 0);
  });
  return n;
}

bool KqueueDevice::HasKnote(int fd, int16_t filter) const {
  const KnoteSlot* slot = slots_.Get(static_cast<size_t>(fd));
  if (slot == nullptr) {
    return false;
  }
  return filter == kFiltRead ? slot->read.registered : slot->write.registered;
}

void KqueueDevice::RemoveSlot(size_t idx) {
  KnoteSlot& slot = slots_.At(idx);
  if (slot.read_active.linked()) {
    read_active_.Unlink(static_cast<int32_t>(idx));
  }
  if (slot.write_active.linked()) {
    write_active_.Unlink(static_cast<int32_t>(idx));
  }
  if (std::shared_ptr<File> file = slot.file.lock()) {
    file->RemoveStatusListener(this);
  }
  slot.file.reset();
  slot.read = Knote{};
  slot.write = Knote{};
  slots_.ReleaseAt(idx);
}

void KqueueDevice::ListPushBack(size_t idx, int16_t filter) {
  if (filter == kFiltRead) {
    read_active_.PushBack(static_cast<int32_t>(idx));
  } else {
    write_active_.PushBack(static_cast<int32_t>(idx));
  }
}

void KqueueDevice::ListUnlink(size_t idx, int16_t filter) {
  if (filter == kFiltRead) {
    read_active_.Unlink(static_cast<int32_t>(idx));
  } else {
    write_active_.Unlink(static_cast<int32_t>(idx));
  }
}

void KqueueDevice::ListMoveToBack(size_t idx, int16_t filter) {
  if (filter == kFiltRead) {
    read_active_.MoveToBack(static_cast<int32_t>(idx));
  } else {
    write_active_.MoveToBack(static_cast<int32_t>(idx));
  }
}

void KqueueDevice::DeleteKnote(size_t idx, int16_t filter) {
  KnoteSlot& slot = slots_.At(idx);
  Knote& knote = KnoteFor(slot, filter);
  knote = Knote{};
  IndexLink& link = filter == kFiltRead ? slot.read_active : slot.write_active;
  if (link.linked()) {
    ListUnlink(idx, filter);
  }
  if (!slot.read.registered && !slot.write.registered) {
    RemoveSlot(idx);
  }
}

void KqueueDevice::Activate(size_t idx, int16_t filter, bool interrupt) {
  KnoteSlot& slot = slots_.At(idx);
  Knote& knote = KnoteFor(slot, filter);
  IndexLink& link = filter == kFiltRead ? slot.read_active : slot.write_active;
  if (!knote.registered || !knote.enabled || link.linked()) {
    return;
  }
  ListPushBack(idx, filter);
  ++kernel()->stats().kq_knote_activations;
  if (interrupt) {
    kernel()->ChargeDebt(kernel()->cost().kq_knote_activate, ChargeCat::kKqFilter);
  } else {
    kernel()->Charge(kernel()->cost().kq_knote_activate, ChargeCat::kKqFilter);
  }
  poll_wait().WakeOne();
}

void KqueueDevice::ProbeKnote(size_t idx, int16_t filter) {
  KnoteSlot& slot = slots_.At(idx);
  std::shared_ptr<File> file = slot.file.lock();
  if (file == nullptr) {
    return;
  }
  // One driver poll at registration: readiness that predates the knote is
  // never lost (no probe-after-arm race by construction).
  kernel()->Charge(kernel()->cost().poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
  if ((file->PollMask() & FilterMask(filter)) != 0) {
    Activate(idx, filter, /*interrupt=*/false);
  }
}

int KqueueDevice::ApplyChange(const KEvent& change) {
  KernelStats& stats = kernel()->stats();
  ++stats.kq_changes_applied;
  kernel()->Charge(kernel()->cost().kq_change_per_entry, ChargeCat::kKqRegister);
  const int fd = change.ident;
  if (fd < 0 || static_cast<size_t>(fd) >= slots_.limit() ||
      (change.filter != kFiltRead && change.filter != kFiltWrite)) {
    return -1;
  }
  const size_t idx = static_cast<size_t>(fd);

  if ((change.flags & kEvDelete) != 0) {
    if (!HasKnote(fd, change.filter)) {
      return -1;  // ENOENT
    }
    DeleteKnote(idx, change.filter);
    return 0;
  }

  if ((change.flags & kEvAdd) != 0) {
    std::shared_ptr<File> current = owner_->fds().Get(fd);
    if (current == nullptr) {
      return -1;  // EBADF
    }
    KnoteSlot* slot = slots_.Get(idx);
    if (slot != nullptr && slot->file.lock() != current) {
      // fd reused under live knotes: the old registrations followed the old
      // file; drop them before rebinding.
      RemoveSlot(idx);
      slot = nullptr;
    }
    if (slot == nullptr) {
      if (FaultPlane* fault = kernel()->fault();
          fault != nullptr && fault->InjectInterestEnomem()) {
        return kErrNoMem;
      }
      slot = &slots_.EmplaceAt(idx);
      slot->file = current;
      current->AddStatusListener(this);
    }
    // EV_ADD on an existing knote modifies it in place (kqueue semantics).
    Knote& knote = KnoteFor(*slot, change.filter);
    knote.registered = true;
    knote.enabled = (change.flags & kEvDisable) == 0;
    knote.oneshot = (change.flags & kEvOneshot) != 0;
    knote.clear = (change.flags & kEvClear) != 0;
    if (knote.enabled) {
      ProbeKnote(idx, change.filter);
    }
    return 0;
  }

  // ENABLE / DISABLE without ADD: mutate an existing knote.
  if (!HasKnote(fd, change.filter)) {
    return -1;  // ENOENT
  }
  KnoteSlot& slot = slots_.At(idx);
  Knote& knote = KnoteFor(slot, change.filter);
  if ((change.flags & kEvDisable) != 0) {
    knote.enabled = false;
    IndexLink& link =
        change.filter == kFiltRead ? slot.read_active : slot.write_active;
    if (link.linked()) {
      ListUnlink(idx, change.filter);
    }
  } else if ((change.flags & kEvEnable) != 0) {
    knote.enabled = true;
    ProbeKnote(idx, change.filter);
  }
  return 0;
}

int KqueueDevice::HarvestFilter(int16_t filter, std::span<KEvent> out, int n) {
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  const bool is_read = filter == kFiltRead;
  auto list_next = [&](int32_t i) {
    return is_read ? read_active_.NextOf(i) : write_active_.NextOf(i);
  };

  size_t budget = is_read ? read_active_.size() : write_active_.size();
  int32_t cur = is_read ? read_active_.front() : write_active_.front();
  while (budget-- > 0 && cur != kNilIndex && n < static_cast<int>(out.size())) {
    const int32_t next = list_next(cur);  // capture before any unlink
    const size_t idx = static_cast<size_t>(cur);
    KnoteSlot& slot = slots_.At(idx);
    Knote& knote = KnoteFor(slot, filter);

    std::shared_ptr<File> file = owner_->fds().Get(static_cast<int>(idx));
    if (file == nullptr || file != slot.file.lock()) {
      // Descriptor closed since activation: the knotes die with the file.
      ++stats.kq_spurious_active;
      kernel()->Charge(cost.kq_filter_eval, ChargeCat::kKqFilter);
      RemoveSlot(idx);
      cur = next;
      continue;
    }
    // Lazy evaluation: activation was a hint; re-run the filter now.
    kernel()->Charge({{ChargeCat::kKqFilter, cost.kq_filter_eval},
                      {ChargeCat::kDriverPoll, cost.poll_driver_poll_per_fd}});
    const PollEvents mask = file->PollMask() & FilterMask(filter);
    if (mask == 0) {
      ++stats.kq_spurious_active;
      ListUnlink(idx, filter);
      cur = next;
      continue;
    }

    KEvent& ev = out[static_cast<size_t>(n)];
    ev.ident = static_cast<int>(idx);
    ev.filter = filter;
    ev.flags = (mask & kPollHup) != 0 ? kEvEof : 0;
    ev.data = 0;
    ++n;
    ++stats.kq_events_delivered;
    kernel()->Charge(cost.kq_copyout_per_event, ChargeCat::kResultCopyout);

    if (knote.oneshot) {
      DeleteKnote(idx, filter);
    } else if (knote.clear) {
      // EV_CLEAR: delivered state is cleared; only a fresh driver
      // notification reactivates the knote.
      ListUnlink(idx, filter);
    } else {
      // Level-triggered: stays active while the filter holds; rotate so a
      // truncated eventlist round-robins instead of starving the tail.
      ListMoveToBack(idx, filter);
    }
    cur = next;
  }
  return n;
}

int KqueueDevice::HarvestOnce(std::span<KEvent> out) {
  int n = HarvestFilter(kFiltRead, out, 0);
  n = HarvestFilter(kFiltWrite, out, n);
  kernel()->TraceInstant(TraceEventType::kScan, "kq_harvest",
                         static_cast<int32_t>(active_count()), n);
  return n;
}

// sciolint: hotpath
int KqueueDevice::Kevent(std::span<const KEvent> changes,
                         std::span<KEvent> events, int timeout_ms) {
  SyscallTraceScope trace(kernel(), "kevent",
                          static_cast<int32_t>(changes.size()));
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  ++stats.syscalls;
  ++stats.kq_kevents;
  // The paper's §6 fused update+wait, made first-class: ONE trap covers both
  // the changelist application and the harvest.
  kernel()->Charge({{ChargeCat::kSyscallEntry, cost.syscall_entry},
                    {ChargeCat::kSyscallEntry, cost.kq_kevent_extra}});
  if (closed_) {
    return -1;
  }
  for (const KEvent& change : changes) {
    if (const int rc = ApplyChange(change); rc != 0) {
      trace.set_result(rc);
      return rc;
    }
  }
  if (events.empty()) {
    trace.set_result(0);
    return 0;  // pure changelist application
  }

  // One exclusive waiter on the kqueue's own queue (wake-one), same
  // structural win as the epoll core. The waiter is a pooled member
  // (constructed with the device) so the wait stays allocation-free.
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
      *owner_, timeout_ms, [&] { return HarvestOnce(events); }, arm, disarm);
  trace.set_result(rc);
  return rc;
}

PollEvents KqueueDevice::PollMask() const {
  return active_count() == 0 ? static_cast<PollEvents>(0) : kPollIn;
}

void KqueueDevice::OnFileStatus(File& file, PollEvents mask) {
  if (closed_) {
    return;
  }
  const int fd = file.fd_number();
  if (fd < 0) {
    return;
  }
  KnoteSlot* slot = slots_.Get(static_cast<size_t>(fd));
  if (slot == nullptr || slot->file.lock().get() != &file) {
    return;
  }
  if ((mask & FilterMask(kFiltRead)) != 0) {
    Activate(static_cast<size_t>(fd), kFiltRead, /*interrupt=*/true);
  }
  if ((mask & FilterMask(kFiltWrite)) != 0) {
    Activate(static_cast<size_t>(fd), kFiltWrite, /*interrupt=*/true);
  }
}

}  // namespace scio
