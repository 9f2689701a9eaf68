// Per-process file descriptor table.
//
// POSIX semantics that matter for the paper's workloads: descriptors are
// allocated lowest-free-first, the table has a hard size limit (httperf had to
// be modified to cope with >1024 descriptors, §5), and a close() drops the
// table's reference while interest sets may keep the File alive — which is
// exactly how stale /dev/poll interests and stale RT signals arise.
//
// Storage is a PagedStore: pages of 512 slots materialize on first use, the
// page-level bitmaps give lowest-free-first allocation and ascending-fd
// iteration without scanning empty ranges, and the table is never copied as
// it grows — a 1M-fd process costs exactly the pages its descriptors touch.
// Slots carry generation tags: an FdHandle captured before a close/reuse
// cycle refuses to resolve against the descriptor's new occupant, the
// in-sim analogue of the stale-descriptor races the paper's interest sets
// suffer from.

#ifndef SRC_KERNEL_FD_TABLE_H_
#define SRC_KERNEL_FD_TABLE_H_

#include <memory>
#include <vector>

#include "src/kernel/file.h"
#include "src/kernel/paged_slab.h"

namespace scio {

// A generation-stamped descriptor reference. Resolve() yields the File only
// while the descriptor has not been closed and reused since the handle was
// taken.
struct FdHandle {
  int fd = -1;
  uint32_t gen = 0;
  bool valid() const { return fd >= 0; }
};

class FdTable {
 public:
  explicit FdTable(int max_fds = 8192) : slots_(static_cast<size_t>(max_fds)), max_fds_(max_fds) {}

  // Install a file under the lowest free descriptor. Returns the fd, or -1
  // if the table is full (EMFILE).
  int Allocate(std::shared_ptr<File> file);

  // nullptr if fd is out of range or closed.
  std::shared_ptr<File> Get(int fd) const;

  // Get() without taking a reference, for scan loops that only call the
  // file's PollMask() while nothing can close the descriptor.
  File* Peek(int fd) const {
    return fd < 0 || !slots_.Contains(static_cast<size_t>(fd))
               ? nullptr
               : slots_.At(static_cast<size_t>(fd)).get();
  }

  // Returns 0, or -1 if fd was not open (EBADF). Runs the file's OnFdClose
  // hook before releasing the slot.
  int Close(int fd);

  int max_fds() const { return max_fds_; }
  size_t open_count() const { return slots_.size(); }

  // Current generation tag of fd's slot (bumped on every close). 0 for
  // out-of-range fds.
  uint32_t generation(int fd) const {
    return fd < 0 ? 0 : slots_.generation(static_cast<size_t>(fd));
  }

  // Generation-stamped handle for an open fd; invalid handle otherwise.
  FdHandle Handle(int fd) const {
    std::shared_ptr<File> f = Get(fd);
    return f == nullptr ? FdHandle{} : FdHandle{fd, generation(fd)};
  }

  // True while the descriptor behind a handle is still open: not closed
  // since the handle was taken, so it still holds the same File.
  bool Current(const FdHandle& h) const {
    return h.valid() && slots_.Contains(static_cast<size_t>(h.fd)) &&
           slots_.generation(static_cast<size_t>(h.fd)) == h.gen;
  }

  // The File behind a handle, or nullptr if the descriptor has been closed
  // (even if the fd number has since been reused by a different File).
  std::shared_ptr<File> Resolve(const FdHandle& h) const {
    return Current(h) ? slots_.At(static_cast<size_t>(h.fd)) : nullptr;
  }

  // Allocation-free visit of every open descriptor in ascending fd order:
  // fn(int fd, const std::shared_ptr<File>&). No open/close inside fn.
  template <typename Fn>
  void ForEachOpenFd(Fn&& fn) const {
    slots_.ForEach([&fn](size_t i, const std::shared_ptr<File>& f) {
      fn(static_cast<int>(i), f);
    });
  }

  // Snapshot of all open descriptors in ascending order. Allocates; prefer
  // ForEachOpenFd on hot paths.
  std::vector<int> OpenFds() const;

  // Bytes of page storage currently held by the table.
  size_t tracked_bytes() const { return slots_.tracked_bytes(); }

  // Account this table's pages under MemSys::kFdTable.
  void set_mem_ledger(MemLedger* ledger) { slots_.set_mem_ledger(ledger, MemSys::kFdTable); }

 private:
  // At() on hot paths is safe: every caller has checked Contains first.
  mutable PagedStore<std::shared_ptr<File>> slots_;
  int max_fds_;
};

}  // namespace scio

#endif  // SRC_KERNEL_FD_TABLE_H_
