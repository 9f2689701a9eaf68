// File objects: anything a file descriptor can refer to.
//
// A File exposes its instantaneous readiness through PollMask() (the "driver
// poll callback" in the paper's terms — invoking it is charged as an
// expensive operation), and pushes state-change notifications through
// NotifyStatus(). Notifications fan out to:
//   1. registered StatusListeners — /dev/poll backmap links use these to set
//      hints (paper §3.2), epoll and kqueue registrations to queue events;
//   2. the owners' RT signal queues, if fcntl(F_SETSIG) armed any (paper §2);
//   3. the file's poll wait queue, waking blocked poll()/DP_POLL sleepers.
// Hints are set before sleepers wake, so a woken scan always observes them.
//
// A file several processes share (a pool's listener) gives each change to
// every listener and subscriber: the 2.2 thundering herd, on purpose. A
// wake-one file (set_wake_one) gives it to one of each, taken in turn in
// registration order. EPOLLEXCLUSIVE instead wakes the first registrant
// with a sleeper; rotating needs no knowledge of who sleeps. poll()
// sleepers on the wait queue still all wake, as in Linux.

#ifndef SRC_KERNEL_FILE_H_
#define SRC_KERNEL_FILE_H_

#include <cstdint>

#include "src/kernel/poll_types.h"
#include "src/kernel/small_vector.h"
#include "src/kernel/wait_queue.h"

namespace scio {

class File;
class Process;
class SimKernel;

class StatusListener {
 public:
  virtual ~StatusListener() = default;
  // `mask` is the subset of poll bits whose state just changed (to active).
  virtual void OnFileStatus(File& file, PollEvents mask) = 0;
  // A descriptor that held `file` was closed. Must not add or remove
  // listeners on `file`.
  virtual void OnDescriptorClosed(File& file) { (void)file; }
};

// What a File is, for the syscalls that take one kind only: read(), write()
// and accept() check it instead of a dynamic_cast, and a wrong kind is
// EBADF.
enum class FileKind : uint8_t { kOther, kSocket, kListener };

class File {
 public:
  explicit File(SimKernel* kernel, FileKind kind = FileKind::kOther)
      : kernel_(kernel), kind_(kind) {}
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  virtual ~File() = default;

  // Instantaneous readiness. This is the driver poll callback: callers that
  // model kernel scans must charge CostModel::*driver_poll* when calling it.
  virtual PollEvents PollMask() const = 0;

  // Whether this file's driver participates in the /dev/poll hinting scheme
  // (paper §3.2: only essential drivers are modified; others fall back to
  // being polled on every scan).
  virtual bool SupportsPollHints() const { return false; }

  // Invoked when the last fd reference is closed.
  virtual void OnFdClose() {}

  SimKernel* kernel() const { return kernel_; }
  FileKind kind() const { return kind_; }
  WaitQueue& poll_wait() { return poll_wait_; }

  // Fan a state change out to listeners, signal owner, and sleepers.
  void NotifyStatus(PollEvents mask);

  // Tell the listeners that a descriptor holding this file was closed
  // (FdTable::Close).
  void NotifyDescriptorClosed() {
    for (StatusListener* l : listeners_) {
      l->OnDescriptorClosed(*this);
    }
  }

  void AddStatusListener(StatusListener* listener);
  void RemoveStatusListener(StatusListener* listener);
  size_t status_listener_count() const { return listeners_.size(); }

  // fcntl(F_SETOWN)/fcntl(F_SETSIG): arm async event signals. The owner list
  // supports one subscription per process so N workers can share a listener.
  // signo != 0 adds/updates `owner`'s subscription; signo == 0 with a non-null
  // owner removes only that process's subscription; a null owner disarms all
  // (the legacy single-owner disarm path).
  void SetAsyncSignal(Process* owner, int signo);

  // Hand each status change to one listener and one signal subscriber,
  // rotating, instead of to all of them.
  void set_wake_one(bool wake_one) { wake_one_ = wake_one; }

  // The fd number this file is installed under (for signal payloads and
  // result reporting). Maintained by FdTable.
  void set_fd_number(int fd) { fd_number_ = fd; }
  int fd_number() const { return fd_number_; }

 private:
  struct AsyncSub {
    Process* proc = nullptr;
    int signo = 0;
  };

  SimKernel* kernel_;
  WaitQueue poll_wait_;
  // Registration order. A socket has one listener and at most one
  // subscriber, which live inline.
  SmallVector<StatusListener*, 1> listeners_;
  SmallVector<AsyncSub, 1> async_subs_;
  bool wake_one_ = false;
  // The next listener and subscriber a wake-one file hands a change to.
  size_t listener_rr_next_ = 0;
  size_t async_rr_next_ = 0;
  int fd_number_ = -1;
  FileKind kind_;
};

}  // namespace scio

#endif  // SRC_KERNEL_FILE_H_
