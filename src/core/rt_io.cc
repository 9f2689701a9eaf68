#include "src/core/rt_io.h"

namespace scio {

int RtIo::ArmAsync(int fd, int signo) {
  SyscallTraceScope trace(kernel_, "fcntl_setsig", fd);
  KernelStats& stats = kernel_->stats();
  stats.syscalls += 2;
  stats.fcntls += 2;
  kernel_->Charge(2 * (kernel_->cost().syscall_entry + kernel_->cost().fcntl_extra),
                  ChargeCat::kSyscallEntry);
  std::shared_ptr<File> file = proc_->fds().Get(fd);
  if (file == nullptr) {
    return -1;
  }
  file->SetAsyncSignal(signo == 0 ? nullptr : proc_, signo);
  return 0;
}

int RtIo::WaitForSignal(int timeout_ms) {
  // The queued signal wakes the process itself, so the sleep registers no
  // waiter.
  auto none = [] {};
  return kernel_->WaitFor(
      *proc_, timeout_ms, [this] { return proc_->HasPendingSignals() ? 1 : 0; }, none, none);
}

std::optional<SigInfo> RtIo::SigWaitInfo(int timeout_ms, int* error) {
  SyscallTraceScope trace(kernel_, "sigwaitinfo");
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kSignalDequeue, kernel_->cost().rt_sigwaitinfo_extra}});
  const int ready = WaitForSignal(timeout_ms);
  if (error != nullptr) {
    *error = ready == kErrIntr ? kErrIntr : 0;
  }
  if (ready <= 0) {
    trace.set_result(ready);
    return std::nullopt;
  }
  std::optional<SigInfo> si = proc_->DequeueSignal();
  if (si.has_value()) {
    trace.set_result(si->fd);
    if (si->signo == kSigIo) {
      ++stats.sigio_deliveries;
      kernel_->TraceInstant(TraceEventType::kSignal, "sigio_delivered", si->fd);
    } else {
      ++stats.rt_signals_delivered;
    }
  }
  return si;
}

int RtIo::SigTimedWait4(std::span<SigInfo> out, int timeout_ms) {
  SyscallTraceScope trace(kernel_, "sigtimedwait4");
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kSignalDequeue, kernel_->cost().rt_sigwaitinfo_extra}});
  if (out.empty()) {
    return 0;
  }
  if (const int ready = WaitForSignal(timeout_ms); ready <= 0) {
    trace.set_result(ready);
    return ready;  // 0, or kErrIntr: the caller retries
  }
  int n = 0;
  while (n < static_cast<int>(out.size())) {
    std::optional<SigInfo> si = proc_->DequeueSignal();
    if (!si.has_value()) {
      break;
    }
    if (si->signo == kSigIo) {
      ++stats.sigio_deliveries;
      kernel_->TraceInstant(TraceEventType::kSignal, "sigio_delivered", si->fd);
    } else {
      ++stats.rt_signals_delivered;
    }
    out[n++] = *si;
    if (n > 1) {
      // The batch amortizes the trap, not the per-entry work: every entry
      // beyond the first pays the marginal dequeue plus its own siginfo
      // copyout (the first entry's copyout is inside rt_sigwaitinfo_extra).
      kernel_->Charge(kernel_->cost().rt_sigwait_per_extra_sig +
                          kernel_->cost().rt_siginfo_copyout,
                      ChargeCat::kSignalDequeue);
    }
  }
  trace.set_result(n);
  return n;
}

size_t RtIo::FlushRtSignals() {
  SyscallTraceScope trace(kernel_, "sig_flush");
  ++kernel_->stats().syscalls;
  const size_t flushed = proc_->FlushRtSignals();
  // The kernel walks the pending queue freeing each siginfo.
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kSignalFlush,
                    kernel_->cost().rt_signal_flush_per_sig *
                        static_cast<SimDuration>(flushed)}});
  kernel_->TraceInstant(TraceEventType::kSignal, "rt_flush",
                        static_cast<int32_t>(flushed));
  trace.set_result(static_cast<int32_t>(flushed));
  return flushed;
}

}  // namespace scio
