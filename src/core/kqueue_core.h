// Kqueue-style filter core: the other successor to the paper's /dev/poll.
//
// Where epoll kept /dev/poll's split between interest updates and waiting,
// kqueue made the paper's §6 "single ioctl() that handles both operations"
// idea the *only* entry point: one kevent() call applies a changelist and
// harvests an eventlist in the same trap. Per-(fd,filter) knotes replace the
// flat interest mask — a descriptor has an independent read knote and write
// knote, each activated from driver context onto its own active list and
// re-filtered at harvest time (lazy evaluation: activation is a hint, the
// filter is the truth).
//
//   - knote slots live in a PagedStore indexed by fd, charged to
//     MemSys::kInterests; the read/write active lists are intrusive
//     IndexLists through the same slots;
//   - EV_CLEAR gives edge-like behaviour (state is "cleared" after delivery;
//     only a fresh driver notification reactivates); without it a knote is
//     level-triggered and re-reports while the filter holds;
//   - EV_ONESHOT deletes the knote after one delivery;
//   - blocking waits (SimKernel::WaitFor) sleep as one exclusive waiter on
//     the kqueue's own wait queue, so an activation wakes one sleeper of
//     this kqueue; as with the epoll core, a shared listener reaches one
//     kqueue per SYN only when it is wake-one (File::set_wake_one).

#ifndef SRC_CORE_KQUEUE_CORE_H_
#define SRC_CORE_KQUEUE_CORE_H_

#include <memory>
#include <span>
#include <vector>

#include "src/kernel/file.h"
#include "src/kernel/paged_slab.h"
#include "src/kernel/poll_types.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"
#include "src/kernel/wait_queue.h"

namespace scio {

// Filters: which aspect of the descriptor the knote watches.
inline constexpr int16_t kFiltRead = -1;
inline constexpr int16_t kFiltWrite = -2;

// Changelist action / behaviour flags (kevent's EV_*).
inline constexpr uint16_t kEvAdd = 0x0001;
inline constexpr uint16_t kEvDelete = 0x0002;
inline constexpr uint16_t kEvEnable = 0x0004;
inline constexpr uint16_t kEvDisable = 0x0008;
inline constexpr uint16_t kEvOneshot = 0x0010;
inline constexpr uint16_t kEvClear = 0x0020;
// Set by the kernel on delivered events whose file saw EOF/hangup.
inline constexpr uint16_t kEvEof = 0x8000;

struct KEvent {
  int ident = -1;        // the fd
  int16_t filter = 0;    // kFiltRead / kFiltWrite
  uint16_t flags = 0;    // EV_* actions in a changelist, EV_EOF on output
  int64_t data = 0;      // filter-specific payload (unused by the sim drivers)
};

class KqueueDevice : public File, public StatusListener {
 public:
  KqueueDevice(SimKernel* kernel, Process* owner);
  ~KqueueDevice() override;

  // kevent(2): apply `changes`, then (if `events` is non-empty) wait up to
  // timeout_ms and harvest into `events`. Returns the number of events
  // delivered (0 on timeout or pure-changelist calls), kErrIntr when a
  // signal interrupts the wait, kErrNoMem under an injected allocation
  // failure, -1 on a malformed change.
  int Kevent(std::span<const KEvent> changes, std::span<KEvent> events,
             int timeout_ms);

  // --- File interface ----------------------------------------------------------
  PollEvents PollMask() const override;
  void OnFdClose() override;

  // --- driver side (interrupt context) -----------------------------------------
  void OnFileStatus(File& file, PollEvents mask) override;

  // --- introspection ------------------------------------------------------------
  size_t knote_count() const;          // registered (fd,filter) pairs
  size_t active_count() const { return read_active_.size() + write_active_.size(); }
  bool HasKnote(int fd, int16_t filter) const;
  Process* owner() const { return owner_; }

 private:
  struct Knote {
    bool registered = false;
    bool enabled = false;
    bool oneshot = false;
    bool clear = false;  // EV_CLEAR: edge-like re-arm
  };
  struct KnoteSlot {
    std::weak_ptr<File> file;
    Knote read;
    Knote write;
    // IndexList links must be direct members, so the two filters' active-list
    // links live beside the knotes rather than inside them.
    IndexLink read_active;
    IndexLink write_active;
  };

  Knote& KnoteFor(KnoteSlot& slot, int16_t filter) {
    return filter == kFiltRead ? slot.read : slot.write;
  }
  // The two active lists are distinct template instantiations (each links
  // through its own IndexLink member), so per-filter access goes through
  // these dispatch helpers instead of a ternary.
  void ListPushBack(size_t idx, int16_t filter);
  void ListUnlink(size_t idx, int16_t filter);
  void ListMoveToBack(size_t idx, int16_t filter);
  // Apply one changelist entry; returns 0 / -1 / kErrNoMem.
  int ApplyChange(const KEvent& change);
  // Evaluate the filter now (process context) and activate if it holds.
  void ProbeKnote(size_t idx, int16_t filter);
  void Activate(size_t idx, int16_t filter, bool interrupt);
  // Drop one knote; releases the slot and unregisters the listener when the
  // last filter on the fd goes.
  void DeleteKnote(size_t idx, int16_t filter);
  void RemoveSlot(size_t idx);
  // Harvest one filter's active list; appends to out, returns new count.
  int HarvestFilter(int16_t filter, std::span<KEvent> out, int n);
  int HarvestOnce(std::span<KEvent> out);

  Process* owner_;
  PagedStore<KnoteSlot> slots_;
  IndexList<KnoteSlot, &KnoteSlot::read_active> read_active_;
  IndexList<KnoteSlot, &KnoteSlot::write_active> write_active_;
  bool closed_ = false;
  // Pooled wait-queue entry for the blocking path; constructed eagerly so
  // Kevent() never allocates (H1: the harvest/wait loop is a hot path).
  Waiter waiter_;
};

}  // namespace scio

#endif  // SRC_CORE_KQUEUE_CORE_H_
