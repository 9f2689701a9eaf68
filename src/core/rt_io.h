// POSIX RT signal I/O syscalls (paper §2).
//
// fcntl(F_SETOWN) + fcntl(F_SETSIG, signum) arm per-fd completion signals;
// the application keeps the signals masked and collects them synchronously
// with sigwaitinfo() — one siginfo per call, which is exactly the per-event
// syscall overhead the paper blames for phhttpd's behaviour under load (§5.2,
// FIG 11). sigtimedwait4() is the paper's proposed batch-dequeue extension
// (§6): "allow the kernel to return more than one siginfo struct per
// invocation".

#ifndef SRC_CORE_RT_IO_H_
#define SRC_CORE_RT_IO_H_

#include <optional>
#include <span>

#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"

namespace scio {

class RtIo {
 public:
  RtIo(SimKernel* kernel, Process* proc) : kernel_(kernel), proc_(proc) {}

  // fcntl(fd, F_SETOWN, pid) + fcntl(fd, F_SETSIG, signo), charged as two
  // syscalls. signo == 0 disarms. Returns 0, or -1 on a bad fd.
  [[nodiscard]] int ArmAsync(int fd, int signo);

  // sigwaitinfo(): block until a signal is pending, dequeue the lowest-
  // numbered one. Returns nullopt on timeout (timeout_ms >= 0), stop or
  // EINTR; if `error` is given it reads kErrIntr after an EINTR, else 0.
  // timeout_ms < 0 blocks forever (the real call always blocks; the timeout
  // exists so benchmark loops can wind down).
  [[nodiscard]] std::optional<SigInfo> SigWaitInfo(int timeout_ms = -1,
                                                   int* error = nullptr);

  // sigtimedwait4() extension: dequeue up to out.size() pending signals in
  // one call. Returns the count (>= 1 unless timeout/stop), or kErrIntr when
  // a signal interrupts the sleep.
  [[nodiscard]] int SigTimedWait4(std::span<SigInfo> out, int timeout_ms = -1);

  // Overflow recovery step (paper §2): reset handlers to SIG_DFL, flushing
  // every queued RT signal. Returns the number flushed. One syscall.
  [[nodiscard]] size_t FlushRtSignals();

 private:
  // SimKernel::WaitFor until a signal is pending: > 0 when one is, 0 on
  // timeout or stop, kErrIntr when a signal interrupts the sleep.
  int WaitForSignal(int timeout_ms);

  SimKernel* kernel_;
  Process* proc_;
};

}  // namespace scio

#endif  // SRC_CORE_RT_IO_H_
