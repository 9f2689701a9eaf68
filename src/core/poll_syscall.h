// Classic poll(2), as stock Linux 2.2 implemented it.
//
// This is the baseline the paper improves on (§3): every call copies the
// whole interest set into the kernel, invokes each file's driver poll
// callback, and — when it has to sleep — adds and removes a wait-queue entry
// per file per sleep/wake cycle (the churn Brown fingered in §6). Every one
// of those operations is charged to the cost model. The sleep follows
// SimKernel::WaitFor, the protocol every blocking wait shares.

#ifndef SRC_CORE_POLL_SYSCALL_H_
#define SRC_CORE_POLL_SYSCALL_H_

#include <memory>
#include <span>
#include <vector>

#include "src/kernel/poll_types.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"
#include "src/kernel/wait_queue.h"

namespace scio {

struct PollSyscallOptions {
  // ABL-6: disable to measure how much of poll()'s cost is wait-queue churn.
  bool charge_waitqueue = true;
};

class PollSyscall {
 public:
  PollSyscall(SimKernel* kernel, Process* proc, PollSyscallOptions options = PollSyscallOptions{})
      : kernel_(kernel), proc_(proc), options_(options) {}

  // poll(2): fills revents for each entry; returns the number of entries
  // with non-zero revents (POLLNVAL counts, as in Linux), 0 on timeout, or
  // kErrIntr when a signal interrupts the sleep. timeout_ms < 0 waits forever.
  [[nodiscard]] int Poll(std::span<PollFd> fds, int timeout_ms);

 private:
  // One scan over the set; returns the ready count.
  int ScanOnce(std::span<PollFd> fds);

  SimKernel* kernel_;
  Process* proc_;
  PollSyscallOptions options_;
  // Pooled wait-queue entries, reused across sleep/wake cycles. The wake
  // closures capture the Process* by value (PollSyscall objects get
  // move-assigned into SysCalls; the process they serve never moves).
  std::vector<std::unique_ptr<Waiter>> waiter_pool_;
};

}  // namespace scio

#endif  // SRC_CORE_POLL_SYSCALL_H_
