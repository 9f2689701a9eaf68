#include "src/core/poll_syscall.h"

#include <memory>
#include <vector>

#include "src/kernel/fd_table.h"

namespace scio {

int PollSyscall::ScanOnce(std::span<PollFd> fds) {
  KernelStats& stats = kernel_->stats();
  const FdTable& table = proc_->fds();
  const SimDuration per_fd = kernel_->cost().poll_driver_poll_per_fd;
  const uint64_t scanned_before = stats.poll_fds_scanned;
  // Stock poll() has no hints: the driver poll callback runs for every
  // descriptor on every scan, no matter how idle it is. Its charges join a
  // run paid as one clock move, cut at the event horizon so no event fires
  // between a deferred charge and its PollMask() (see SimKernel).
  uint64_t horizon = kernel_->DeferrableCharges(per_fd);
  uint64_t run = 0;
  int ready = 0;
  for (PollFd& pfd : fds) {
    ++stats.poll_fds_scanned;
    pfd.revents = 0;
    if (pfd.fd < 0) {
      continue;  // negative fds are ignored, as in poll(2)
    }
    const File* file = table.Peek(pfd.fd);
    if (file == nullptr) {
      pfd.revents = kPollNval;
      ++ready;
      continue;
    }
    ++stats.poll_driver_calls;
    if (run < horizon) {
      ++run;
      pfd.revents = file->PollMask() & (pfd.events | kPollAlwaysReported);
    } else {
      // This charge may run events, which could even close the fd: hold a
      // reference to the file across it.
      const std::shared_ptr<File> held = table.Get(pfd.fd);
      kernel_->ChargeRepeated(per_fd, ChargeCat::kDriverPoll, run + 1);
      run = 0;
      pfd.revents = held->PollMask() & (pfd.events | kPollAlwaysReported);
      horizon = kernel_->DeferrableCharges(per_fd);
    }
    if (pfd.revents != 0) {
      ++ready;
    }
  }
  kernel_->ChargeRepeated(per_fd, ChargeCat::kDriverPoll, run);
  kernel_->TraceInstant(TraceEventType::kScan, "poll_scan",
                        static_cast<int32_t>(stats.poll_fds_scanned - scanned_before),
                        ready);
  return ready;
}

int PollSyscall::Poll(std::span<PollFd> fds, int timeout_ms) {
  SyscallTraceScope trace(kernel_, "poll", static_cast<int32_t>(fds.size()));
  KernelStats& stats = kernel_->stats();
  const CostModel& cost = kernel_->cost();
  ++stats.syscalls;
  ++stats.poll_calls;
  // Copy the entire interest set into the kernel (§3.1's first complaint).
  kernel_->Charge({{ChargeCat::kSyscallEntry, cost.syscall_entry},
                   {ChargeCat::kPollfdCopyin,
                    cost.poll_copyin_per_fd * static_cast<SimDuration>(fds.size())}});

  auto scan = [&] {
    const int ready = ScanOnce(fds);
    // Results are copied out when the scan ends the wait, never at the
    // deadline: a zero-length copy-out still pays the interrupt debt.
    if (kernel_->ScanEndsWait(ready, timeout_ms)) {
      stats.poll_results_copied += static_cast<uint64_t>(ready);
      kernel_->Charge(cost.poll_copyout_per_ready * static_cast<SimDuration>(ready),
                      ChargeCat::kResultCopyout);
    }
    return ready;
  };
  // Sleep: enqueue a waiter on every polled file, then tear them all down on
  // wake — the wait-queue churn of §6. The Waiter objects are pooled; only
  // the queue registrations churn, which is what the model charges.
  size_t used = 0;
  auto arm = [&] {
    used = 0;
    for (const PollFd& pfd : fds) {
      if (pfd.fd < 0) {
        continue;
      }
      // Held across the add charge, whose events may close the fd.
      std::shared_ptr<File> file = proc_->fds().Get(pfd.fd);
      if (file == nullptr) {
        continue;
      }
      if (used == waiter_pool_.size()) {
        // sciolint: allow(H1) -- bounded one-time pool growth to high-water
        waiter_pool_.push_back(std::make_unique<Waiter>(
            [proc = proc_] { proc->Wake(); }));
      }
      file->poll_wait().Add(waiter_pool_[used].get());
      ++used;
      ++stats.poll_waitqueue_adds;
      if (options_.charge_waitqueue) {
        kernel_->Charge(cost.poll_waitqueue_add_per_fd, ChargeCat::kWaitqueue);
      }
    }
  };
  // The removals are charged before the detach: a wake that lands inside
  // the charge still reaches a registered waiter.
  auto disarm = [&] {
    stats.poll_waitqueue_removes += used;
    if (options_.charge_waitqueue) {
      kernel_->Charge(cost.poll_waitqueue_remove_per_fd * static_cast<SimDuration>(used),
                      ChargeCat::kWaitqueue);
    }
    for (size_t i = 0; i < used; ++i) {
      waiter_pool_[i]->Detach();
    }
  };
  const int rc = kernel_->WaitFor(*proc_, timeout_ms, scan, arm, disarm);
  trace.set_result(rc);
  return rc;  // kErrIntr: a signal interrupted the sleep; caller must retry
}

}  // namespace scio
