#include "src/core/devpoll.h"

#include <algorithm>
#include <utility>

#include "src/kernel/fd_table.h"
#include "src/kernel/sys_errno.h"

namespace scio {

namespace {

// True when EvaluateInterest would only count a skipped driver call:
// hintable, unhinted, cached not-ready, and still bound to the file open
// under its fd (told by the fd table's generation tag, without a refcount).
bool Idle(const Interest& interest, const FdTable& fds) {
  return interest.hintable && !interest.hint &&
         (interest.cached & (interest.events | kPollAlwaysReported)) == 0 &&
         fds.Current({interest.fd, interest.fd_gen});
}

}  // namespace

DevPollDevice::DevPollDevice(SimKernel* kernel, Process* owner, DevPollOptions options)
    : File(kernel), owner_(owner), options_(options) {
  table_.set_mem_ledger(&kernel->mem());
}

DevPollDevice::~DevPollDevice() = default;

void DevPollDevice::OnFdClose() {
  closed_ = true;
  // Destroying the table unregisters every backmap link.
  table_ = InterestHashTable();
  active_list_.clear();
  hintable_ = 0;
}

void DevPollDevice::BindInterest(Interest& interest) {
  std::shared_ptr<File> current = owner_->fds().Get(interest.fd);
  std::shared_ptr<File> bound = interest.file.lock();
  if (current == bound && bound != nullptr) {
    return;  // still bound to the right file
  }
  interest.link.reset();
  interest.file = current;
  interest.cached = 0;
  interest.hint = true;  // never polled this file yet
  hintable_ -= interest.hintable ? 1 : 0;
  interest.hintable = false;
  if (current == nullptr) {
    return;  // stale fd: EvaluateInterest reports POLLNVAL
  }
  interest.fd_gen = owner_->fds().generation(interest.fd);
  interest.hintable = options_.hints_enabled && current->SupportsPollHints();
  if (interest.hintable) {
    ++hintable_;
    if (spare_links_.empty()) {
      interest.link.reset(new BackmapLink(this));
    } else {
      interest.link.reset(spare_links_.back().release());
      spare_links_.pop_back();
    }
    interest.link->Arm(interest.fd, interest.file);
  }
}

void BackmapLinkRecycler::operator()(BackmapLink* link) const {
  link->device()->RecycleLink(link);
}

void BackmapLink::OnFileStatus(File& file, PollEvents mask) {
  (void)file;
  device_->MarkHint(fd_, mask);
}

void BackmapLink::OnDescriptorClosed(File& file) {
  (void)file;
  device_->MarkFdClosed(fd_);
}

long DevPollDevice::Write(std::span<const PollFd> updates) {
  SyscallTraceScope trace(kernel(), "dp_write",
                          static_cast<int32_t>(updates.size()));
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry, ChargeCat::kSyscallEntry);
  const long rc = WriteInternal(updates);
  trace.set_result(static_cast<int32_t>(rc));
  return rc;
}

long DevPollDevice::WriteInternal(std::span<const PollFd> updates) {
  KernelStats& stats = kernel()->stats();
  ++stats.devpoll_writes;
  stats.devpoll_interests_written += updates.size();
  // Interest-set mutation takes the backmap lock for writing (§3.2).
  ++stats.devpoll_lock_write_acquires;
  kernel()->Charge(
      {{ChargeCat::kInterestUpdate, kernel()->cost().devpoll_lock_acquire},
       {ChargeCat::kInterestUpdate,
        kernel()->cost().devpoll_write_per_fd *
            static_cast<SimDuration>(updates.size())}});

  // A bad entry fails the whole write before any update is applied, like
  // the ENOMEM path below: a partial apply would leave the caller unable to
  // tell which updates took effect.
  bool grows = false;
  for (const PollFd& update : updates) {
    if (update.fd < 0) {
      return -1;
    }
    grows = grows || (update.events & kPollRemove) == 0;
  }
  // Interest-set growth allocates kernel memory; under an ENOMEM fault window
  // the whole write fails atomically, before any update is applied, so the
  // caller can retry the batch verbatim.
  if (grows) {
    if (FaultPlane* fault = kernel()->fault();
        fault != nullptr && fault->InjectInterestEnomem()) {
      return kErrNoMem;
    }
  }

  const uint64_t resizes_before = table_.resize_count();
  for (const PollFd& update : updates) {
    if ((update.events & kPollRemove) != 0) {
      if (const Interest* gone = table_.Find(update.fd); gone != nullptr && gone->hintable) {
        --hintable_;
      }
      table_.Erase(update.fd);
      continue;
    }
    Interest& interest = table_.FindOrInsert(update.fd);
    // Paper §3.1: "the contents of the events field replace the previous
    // interest, unlike the Solaris implementation".
    interest.events = update.events;
    BindInterest(interest);
    table_.Mark(update.fd);  // a new events mask or binding may end idleness
    if (options_.hinted_first_scan) {
      PushActive(interest);
    }
  }
  kernel()->stats().devpoll_table_resizes += table_.resize_count() - resizes_before;
  return static_cast<long>(updates.size() * sizeof(PollFd));
}

int DevPollDevice::IoctlDpAlloc(int nfds) {
  SyscallTraceScope trace(kernel(), "dp_alloc", nfds);
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry + kernel()->cost().devpoll_ioctl_extra,
                   ChargeCat::kSyscallEntry);
  if (nfds <= 0) {
    return -1;
  }
  result_area_.assign(static_cast<size_t>(nfds), PollFd{});
  alloc_done_ = true;
  return 0;
}

PollFd* DevPollDevice::Mmap() {
  SyscallTraceScope trace(kernel(), "dp_mmap");
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry, ChargeCat::kSyscallEntry);
  if (!alloc_done_) {
    return nullptr;
  }
  mapped_ = true;
  return result_area_.data();
}

int DevPollDevice::Munmap() {
  SyscallTraceScope trace(kernel(), "dp_munmap");
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry, ChargeCat::kSyscallEntry);
  if (!mapped_) {
    return -1;
  }
  mapped_ = false;
  return 0;
}

void DevPollDevice::PushActive(Interest& interest) {
  if (!interest.queued) {
    interest.queued = true;
    active_list_.push_back(interest.fd);
  }
}

void DevPollDevice::MarkHint(int fd, PollEvents mask) {
  (void)mask;
  KernelStats& stats = kernel()->stats();
  ++stats.devpoll_hints_set;
  // Hint marking takes the backmap lock for reading (§3.2: "hints require
  // only a read lock, so the lock itself is generally not contended").
  ++stats.devpoll_lock_read_acquires;
  kernel()->ChargeDebt(
      kernel()->cost().devpoll_hint_set + kernel()->cost().devpoll_lock_acquire,
      ChargeCat::kHintMark);
  Interest* interest = table_.Find(fd);
  if (interest == nullptr) {
    return;
  }
  interest->hint = true;
  table_.Mark(fd);
  if (options_.hinted_first_scan) {
    PushActive(*interest);
  }
  // Wake a sleeping DP_POLL (and let composed pollers see us readable).
  owner_->Wake();
  poll_wait().WakeAll();
}

PollEvents DevPollDevice::EvaluateInterest(Interest& interest) {
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();

  std::shared_ptr<File> file = interest.file.lock();
  std::shared_ptr<File> current = owner_->fds().Get(interest.fd);
  if (current == nullptr) {
    // fd closed while interest outstanding: no driver to call. Counted
    // separately so scanned == driver_calls + avoided + stale always holds.
    ++stats.devpoll_scan_stale_fd;
    return kPollNval;
  }
  if (file != current) {
    BindInterest(interest);  // fd number was reused; rebind
    file = current;
  }

  if (!interest.hintable) {
    // Driver doesn't hint (or hints disabled): poll it every scan.
    ++stats.devpoll_driver_calls;
    kernel()->Charge(cost.poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
    interest.cached = file->PollMask();
  } else if (interest.hint) {
    // A hint invalidates the cache: call the driver and erase the hint.
    ++stats.devpoll_driver_calls;
    kernel()->Charge(cost.poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
    interest.cached = file->PollMask();
    interest.hint = false;
  } else if ((interest.cached & (interest.events | kPollAlwaysReported)) != 0) {
    // §3.2: there is no ready->not-ready hint, so a cached result that
    // indicates readiness must be reevaluated every time.
    ++stats.devpoll_driver_calls;
    ++stats.devpoll_cached_ready_rechecks;
    kernel()->Charge(cost.poll_driver_poll_per_fd, ChargeCat::kDriverPoll);
    interest.cached = file->PollMask();
  } else {
    // Cached not-ready and no hint: trust the cache, skip the driver.
    ++stats.devpoll_driver_calls_avoided;
  }
  return interest.cached & (interest.events | kPollAlwaysReported);
}

int DevPollDevice::ScanOnce(PollFd* out, int max, bool charge_copyout) {
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  const uint64_t scanned_before = stats.devpoll_interests_scanned;
  ++stats.devpoll_lock_read_acquires;
  kernel()->Charge(cost.devpoll_lock_acquire, ChargeCat::kDevpollScan);

  int ready = 0;
  auto emit = [&](Interest& interest, PollEvents revents) {
    if (ready >= max) {
      return;
    }
    out[ready].fd = interest.fd;
    out[ready].events = interest.events;
    out[ready].revents = revents;
    ++ready;
    if (charge_copyout) {
      ++stats.devpoll_results_copied;
      kernel()->Charge(cost.devpoll_copyout_per_ready, ChargeCat::kResultCopyout);
    } else {
      ++stats.devpoll_results_mapped;
    }
  };

  if (options_.hinted_first_scan && options_.hints_enabled) {
    // Future-work mode: visit only hinted / cached-ready interests.
    // PushActive during the walk appends to the (now empty) active_list_;
    // the swapped buffers both retain capacity across scans.
    scan_worklist_.clear();
    scan_worklist_.swap(active_list_);
    for (int fd : scan_worklist_) {
      Interest* interest = table_.Find(fd);
      if (interest == nullptr) {
        continue;  // removed since queued
      }
      interest->queued = false;
      ++stats.devpoll_interests_scanned;
      kernel()->Charge(cost.devpoll_scan_per_interest, ChargeCat::kDevpollScan);
      const PollEvents revents = EvaluateInterest(*interest);
      if (revents != 0) {
        // Ready results must be rechecked on the next scan (no
        // ready->not-ready hint), so keep the interest on the worklist.
        PushActive(*interest);
        emit(*interest, revents);
      }
    }
    kernel()->TraceInstant(
        TraceEventType::kScan, "dp_scan",
        static_cast<int32_t>(stats.devpoll_interests_scanned - scanned_before),
        ready);
    return ready;
  }

  // Full walk, in bucket order then chain order: the results array and which
  // events run between which interests' charges depend on that order. An
  // idle interest's scan charge joins a run that is paid as one clock move;
  // the run stops at the event horizon, so no event fires inside it and
  // every interest sees the state it would have seen with one charge each.
  // Any other interest pays the run together with its own scan charge (which
  // may run events), then takes the per-interest path.
  const SimDuration per_interest = cost.devpoll_scan_per_interest;
  const FdTable& fds = owner_->fds();
  uint64_t horizon = kernel()->DeferrableCharges(per_interest);
  uint64_t run = 0;
  auto join = [&](uint64_t idle) {
    run += idle;
    stats.devpoll_interests_scanned += idle;
    stats.devpoll_driver_calls_avoided += idle;
  };
  auto visit = [&](Interest& interest) {
    if (run < horizon && Idle(interest, fds)) {
      join(1);
      return;
    }
    ++stats.devpoll_interests_scanned;
    kernel()->ChargeRepeated(per_interest, ChargeCat::kDevpollScan, run + 1);
    run = 0;
    const PollEvents revents = EvaluateInterest(interest);
    if (revents != 0) {
      emit(interest, revents);
    }
    horizon = kernel()->DeferrableCharges(per_interest);
    if (!Idle(interest, fds)) {
      table_.Mark(interest.fd);
    }
  };
  // A bucket is unmarked before its interests are visited; one left
  // non-idle, or a mark from an event that a charge runs, marks it again.
  // Clean buckets hold only idle interests, so a stretch of them joins the
  // run in one step while it fits under the horizon. A stretch that does not
  // fit joins bucket by bucket up to the bucket that crosses the horizon,
  // which is visited interest by interest; its charge may run events that
  // mark buckets ahead, so the next marked bucket is looked up again.
  const size_t buckets = table_.bucket_count();
  size_t bucket = 0;
  while (bucket < buckets) {
    const size_t marked = table_.NextMarked(bucket);
    if (const uint64_t clean = table_.EntriesIn(bucket, marked); run + clean <= horizon) {
      join(clean);
      bucket = marked;
    } else {
      while (run + table_.bucket_entries(bucket) <= horizon) {
        join(table_.bucket_entries(bucket++));
      }
    }
    if (bucket < buckets) {
      table_.Unmark(bucket);
      table_.ForEachInBucket(bucket++, visit);
    }
  }
  kernel()->ChargeRepeated(per_interest, ChargeCat::kDevpollScan, run);
  kernel()->TraceInstant(
      TraceEventType::kScan, "dp_scan",
      static_cast<int32_t>(stats.devpoll_interests_scanned - scanned_before),
      ready);
  return ready;
}

int DevPollDevice::IoctlDpPoll(DvPoll* args) {
  SyscallTraceScope trace(kernel(), "dp_poll", args->dp_nfds);
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry, ChargeCat::kSyscallEntry);
  const int rc = PollInternal(args);
  trace.set_result(rc);
  return rc;
}

int DevPollDevice::PollInternal(DvPoll* args) {
  KernelStats& stats = kernel()->stats();
  const CostModel& cost = kernel()->cost();
  ++stats.devpoll_polls;
  kernel()->Charge(cost.devpoll_ioctl_extra, ChargeCat::kSyscallEntry);

  const bool use_mapping = args->dp_fds == nullptr;
  PollFd* out = use_mapping ? result_area_.data() : args->dp_fds;
  int max = args->dp_nfds;
  if (use_mapping) {
    if (!mapped_) {
      return -1;
    }
    max = std::min(max, static_cast<int>(result_area_.size()));
  }
  if (max <= 0 || out == nullptr) {
    return -1;
  }

  auto scan = [&] { return ScanOnce(out, max, /*charge_copyout=*/!use_mapping); };
  // Sleep. Hintable interests wake us through MarkHint; anything else needs
  // classic per-file wait queue entries (with their churn costs). The Waiter
  // objects themselves are pooled; only the queue registration churns,
  // which is exactly what the cost model charges for.
  size_t used = 0;
  auto add_waiter = [&](Interest& interest) {
    if (interest.hintable) {
      return;  // MarkHint wakes us
    }
    if (std::shared_ptr<File> file = interest.file.lock()) {
      if (used == waiter_pool_.size()) {
        // sciolint: allow(H1) -- bounded one-time pool growth to high-water
        waiter_pool_.push_back(std::make_unique<Waiter>(
            [proc = owner_] { proc->Wake(); }));
      }
      file->poll_wait().Add(waiter_pool_[used].get());
      ++used;
      ++stats.poll_waitqueue_adds;
      kernel()->Charge(cost.poll_waitqueue_add_per_fd, ChargeCat::kWaitqueue);
    }
  };
  auto arm = [&] {
    used = 0;
    if (hintable_ < table_.size()) {
      table_.ForEach(add_waiter);  // not when every interest is hintable
    }
  };
  // As in poll(), the removals are charged before the detach.
  auto disarm = [&] {
    if (used > 0) {
      stats.poll_waitqueue_removes += used;
      kernel()->Charge(cost.poll_waitqueue_remove_per_fd * static_cast<SimDuration>(used),
                       ChargeCat::kWaitqueue);
      for (size_t i = 0; i < used; ++i) {
        waiter_pool_[i]->Detach();
      }
    }
  };
  return kernel()->WaitFor(*owner_, args->dp_timeout, scan, arm, disarm);
}

int DevPollDevice::IoctlDpWritePoll(std::span<const PollFd> updates, DvPoll* args) {
  // §6 future work: "a single ioctl() that handles both operations at once
  // could improve efficiency" — one syscall entry covers both halves.
  SyscallTraceScope trace(kernel(), "dp_writepoll",
                          static_cast<int32_t>(updates.size()));
  ++kernel()->stats().syscalls;
  kernel()->Charge(kernel()->cost().syscall_entry, ChargeCat::kSyscallEntry);
  if (long rc = WriteInternal(updates); rc < 0) {
    trace.set_result(static_cast<int32_t>(rc));
    return static_cast<int>(rc);  // propagate kErrNoMem vs bad-args -1
  }
  const int rc = PollInternal(args);
  trace.set_result(rc);
  return rc;
}

PollEvents DevPollDevice::PollMask() const {
  // Heuristic readiness for composition: pending hints or cached-ready
  // entries mean a DP_POLL would likely return immediately. A clean bucket
  // holds neither, so only marked buckets are walked.
  InterestHashTable& table = const_cast<DevPollDevice*>(this)->table_;
  PollEvents mask = 0;
  for (size_t b = table.NextMarked(0); b < table.bucket_count() && mask == 0;
       b = table.NextMarked(b + 1)) {
    table.ForEachInBucket(b, [&](Interest& interest) {
      if (interest.hint || (interest.cached & (interest.events | kPollAlwaysReported)) != 0) {
        mask = kPollIn;
      }
    });
  }
  return mask;
}

const Interest* DevPollDevice::FindInterest(int fd) const {
  return const_cast<DevPollDevice*>(this)->table_.Find(fd);
}

}  // namespace scio
