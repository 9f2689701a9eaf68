// /dev/poll: the paper's primary contribution (§3).
//
// One DevPollDevice instance corresponds to one open of /dev/poll — a process
// may open the device several times to build independent interest sets. The
// three optimizations are individually toggleable so the ablation benches can
// attribute their effects:
//
//   §3.1  kernel-state interest sets — always on (that's the device);
//   §3.2  driver hints via backmapping lists — DevPollOptions::hints_enabled;
//   §3.3  mmap'ed result area           — DP_ALLOC + Mmap(), used by DP_POLL
//                                          when DvPoll::dp_fds is null.
//
// Extensions the paper proposes as future work (§6), also implemented:
//   - a fused interest-update + poll ioctl (IoctlDpWritePoll);
//   - hinted-first scanning: maintain an active list so a scan touches only
//     hinted or cached-ready interests instead of the whole set
//     (DevPollOptions::hinted_first_scan). This is the germ of epoll.

#ifndef SRC_CORE_DEVPOLL_H_
#define SRC_CORE_DEVPOLL_H_

#include <memory>
#include <span>
#include <vector>

#include "src/core/interest_table.h"
#include "src/kernel/file.h"
#include "src/kernel/poll_types.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"
#include "src/kernel/wait_queue.h"

namespace scio {

struct DevPollOptions {
  bool hints_enabled = true;
  // Solaris OR's a written events field into the existing interest; the
  // paper's Linux implementation replaces it (§3.1). Off = replace.
  bool solaris_or_semantics = false;
  // §6 future work: scan only hinted / cached-ready interests.
  bool hinted_first_scan = false;
  // Wake-one sleep (WQ_FLAG_EXCLUSIVE, the 2.3 herd fix): DP_POLL sleeps as
  // an exclusive waiter on EVERY interest's wait queue — hintable ones too,
  // since the hint path's broadcast Wake() would otherwise rouse all sharers
  // of a file. The extra wait-queue churn is charged honestly; sharding is
  // the mode that avoids both the herd and the churn.
  bool exclusive_wait = false;
};

class DevPollDevice : public File {
 public:
  DevPollDevice(SimKernel* kernel, Process* owner, DevPollOptions options = DevPollOptions{});
  ~DevPollDevice() override;

  // --- the device's syscall surface -------------------------------------------
  // write(2): add / modify / remove (POLLREMOVE) interests. Returns the
  // number of bytes consumed (updates.size() * sizeof(PollFd)).
  long Write(std::span<const PollFd> updates);

  // ioctl(DP_ALLOC): reserve a result area able to hold `nfds` results.
  // Must precede Mmap(). Returns 0, or -1 if nfds is non-positive.
  int IoctlDpAlloc(int nfds);

  // mmap(2) of the result area. Returns nullptr unless DP_ALLOC succeeded.
  PollFd* Mmap();

  // munmap(2). Returns 0, or -1 if not mapped.
  int Munmap();

  // ioctl(DP_POLL): wait for events. With args->dp_fds == nullptr, results
  // are deposited in the mmap'ed area (no copy-out charge). Returns the
  // number of ready descriptors, 0 on timeout, -1 on bad arguments.
  int IoctlDpPoll(DvPoll* args);

  // Fused update+wait (§6 future work): one syscall charge for both.
  int IoctlDpWritePoll(std::span<const PollFd> updates, DvPoll* args);

  // --- File interface ----------------------------------------------------------
  // The device itself reports readable when a scan would find events — this
  // lets a /dev/poll fd be composed into other event loops.
  PollEvents PollMask() const override;
  void OnFdClose() override;

  // --- backmap side (driver context) -------------------------------------------
  void MarkHint(int fd, PollEvents mask);

  // --- introspection ------------------------------------------------------------
  size_t interest_count() const { return table_.size(); }
  size_t bucket_count() const { return table_.bucket_count(); }
  const DevPollOptions& options() const { return options_; }
  Process* owner() const { return owner_; }
  int result_capacity() const { return static_cast<int>(result_area_.size()); }
  bool mapped() const { return mapped_; }
  const Interest* FindInterest(int fd) const;

 private:
  // Syscall bodies without the trap charge, shared with the fused ioctl.
  long WriteInternal(std::span<const PollFd> updates);
  int PollInternal(DvPoll* args);

  // One pass over the interest set; appends up to `max` ready pollfds.
  // `charge_copyout` is false when writing to the shared mapping.
  int ScanOnce(PollFd* out, int max, bool charge_copyout);

  // Evaluate a single interest; returns its revents (0 if not ready).
  PollEvents EvaluateInterest(Interest& interest);

  // (Re)bind an interest to the file currently installed under its fd.
  void BindInterest(Interest& interest);

  void PushActive(Interest& interest);

  Process* owner_;
  DevPollOptions options_;
  InterestHashTable table_;
  std::vector<PollFd> result_area_;
  bool alloc_done_ = false;
  bool mapped_ = false;
  bool closed_ = false;
  std::vector<int> active_list_;  // hinted-first mode scan worklist
  // Ping-pong partner of active_list_: ScanOnce drains into it so both
  // buffers keep their capacity across scans (no per-scan allocation).
  std::vector<int> scan_worklist_;
  // Pooled wait-queue entries for the non-hintable sleep path; grown on
  // demand, reused across sleep/wake cycles.
  std::vector<std::unique_ptr<Waiter>> waiter_pool_;
};

}  // namespace scio

#endif  // SRC_CORE_DEVPOLL_H_
