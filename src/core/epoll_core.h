// Epoll-style event core: what the paper's /dev/poll design became.
//
// History's answer to the paper's §6 future work was not a faster scan — it
// was removing the scan entirely. The epoll-style core keeps the kernel-state
// interest set (§3.1) but replaces the hinted *scan* with a kernel-resident
// **ready list**: the driver-side status callback links the interest straight
// onto a list, and a wait harvests only that list. Idle descriptors cost
// nothing per wait — the per-wait work is O(ready), not O(interest set).
//
//   - interest slots live in a PagedStore indexed by fd (the million-
//     connection storage plane), charged to MemSys::kInterests;
//   - the ready list is an intrusive IndexList through the slots (8 bytes
//     per membership, insertion-ordered — deterministic);
//   - level-triggered interests are revalidated while they stay ready
//     (exactly /dev/poll's "no ready->not-ready hint" rule, §3.2);
//     edge-triggered interests re-arm only on a fresh driver notification;
//   - kEpollOneshot disables the interest after one delivery until a
//     kEpollCtlMod re-arms it;
//   - a blocking wait (SimKernel::WaitFor) sleeps as an *exclusive* waiter
//     on the device's own wait queue, so a driver notification wakes one
//     sleeper of this device. Workers that each own a device and share a
//     listener still all hear its SYNs, one registration each, unless the
//     listener is wake-one (File::set_wake_one).

#ifndef SRC_CORE_EPOLL_CORE_H_
#define SRC_CORE_EPOLL_CORE_H_

#include <memory>
#include <vector>

#include "src/kernel/file.h"
#include "src/kernel/paged_slab.h"
#include "src/kernel/poll_types.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"
#include "src/kernel/wait_queue.h"

namespace scio {

enum class EpollOp { kAdd, kMod, kDel };

// Per-interest behaviour flags (epoll_ctl's EPOLLET / EPOLLONESHOT).
inline constexpr uint16_t kEpollEdge = 0x1;
inline constexpr uint16_t kEpollOneshot = 0x2;

class EpollDevice : public File, public StatusListener {
 public:
  EpollDevice(SimKernel* kernel, Process* owner);
  ~EpollDevice() override;

  // --- the device's syscall surface -------------------------------------------
  // epoll_ctl(2). Returns 0; -1 on a bad fd / missing or duplicate interest;
  // kErrNoMem when an injected allocation failure hits an Add.
  int Ctl(EpollOp op, int fd, PollEvents events, uint16_t flags = 0);

  // epoll_wait(2): harvest up to `max` ready descriptors into `out`
  // (fd/events/revents, same shape the servers already dispatch). Returns
  // the count, 0 on timeout, kErrIntr when interrupted, -1 on bad args.
  int Wait(PollFd* out, int max, int timeout_ms);

  // --- File interface ----------------------------------------------------------
  // Readable when a wait would return immediately (composable, like the
  // /dev/poll device).
  PollEvents PollMask() const override;
  void OnFdClose() override;

  // --- driver side (interrupt context) -----------------------------------------
  void OnFileStatus(File& file, PollEvents mask) override;

  // --- introspection ------------------------------------------------------------
  size_t interest_count() const { return items_.size(); }
  bool Watching(int fd) const { return items_.Contains(static_cast<size_t>(fd)); }
  Process* owner() const { return owner_; }

 private:
  struct EpollItem {
    PollEvents events = 0;
    uint16_t flags = 0;
    // Oneshot fired; interest dormant until a kEpollCtlMod re-arms it.
    bool disabled = false;
    std::weak_ptr<File> file;
    IndexLink ready;
  };

  // Link the item onto the ready list (idempotent) and wake one sleeper.
  // `interrupt` selects debt vs process-context charging.
  void PushReady(size_t idx, bool interrupt);
  // Evaluate the current driver mask at interest-registration time and seed
  // the ready list — epoll polls the file once at add/mod so pre-existing
  // readiness is never lost (the race the RT-signal servers probe around).
  void ProbeAtRegister(size_t idx);
  // Drop an interest whose fd no longer resolves to the bound file: epoll
  // interests follow the file, not the descriptor number.
  void RemoveItem(size_t idx);
  int HarvestOnce(PollFd* out, int max);

  Process* owner_;
  PagedStore<EpollItem> items_;
  IndexList<EpollItem, &EpollItem::ready> ready_;
  bool closed_ = false;
  // Pooled wait-queue entry for the blocking path; constructed eagerly so
  // Wait() never allocates (H1: the harvest/wait loop is a hot path).
  Waiter waiter_;
};

}  // namespace scio

#endif  // SRC_CORE_EPOLL_CORE_H_
