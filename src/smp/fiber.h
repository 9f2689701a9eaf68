// Fiber: a user-space execution context for the SMP plane's workers.
//
// A worker body is a deep blocking call stack (a server's Run() loop inside
// simulated syscalls), so it needs a stack of its own to suspend on, but no
// OS thread. A Fiber is a ucontext_t on its own mmap'd stack, and a switch
// is one swapcontext(): the host kernel schedules nothing.
//
// Under AddressSanitizer and ThreadSanitizer every switch tells the
// sanitizer which stack is live (ASan's __sanitizer_*_switch_fiber, TSan's
// __tsan_*_fiber); each set is compiled in only under its own sanitizer.

#ifndef SRC_SMP_FIBER_H_
#define SRC_SMP_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCIO_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define SCIO_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(SCIO_FIBER_ASAN)
#define SCIO_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(SCIO_FIBER_TSAN)
#define SCIO_FIBER_TSAN 1
#endif

namespace scio {

class Fiber {
 public:
  // The calling thread's own context. It owns no stack: SwitchTo() saves
  // the thread's registers into it, so switching back resumes that caller.
  Fiber();
  // A fiber on a fresh stack; the first switch to it calls `entry`, which
  // must leave with ExitTo() rather than return. Throws std::system_error if
  // the stack cannot be mapped.
  explicit Fiber(std::function<void()> entry);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Suspends the running context, which must be *this, and resumes `to`.
  // Returns when some fiber switches back to *this.
  void SwitchTo(Fiber& to);
  // Leaves the running context, *this, for `to` for good: a finished fiber
  // is never resumed.
  [[noreturn]] void ExitTo(Fiber& to);

 private:
  // Usable stack per fiber: the default thread stack's 8 MB, above one
  // PROT_NONE guard page, so an overflow faults instead of corrupting memory.
  static constexpr size_t kStackBytes = size_t{8} << 20;

  static void Start(int self_hi, int self_lo) noexcept;  // makecontext entry
  // Sanitizer bookkeeping around a switch from *this to `to`; no-ops in
  // other builds. `fake_stack` is null when *this will never resume.
  void BeginSwitch(Fiber& to, void** fake_stack);
  // Runs on *this's stack as soon as a switch into it lands.
  void EndSwitch(void* fake_stack);

  ucontext_t uc_{};
  std::function<void()> entry_;
  void* map_ = nullptr;  // guard page + stack; null for a thread's own context
  size_t map_bytes_ = 0;
#if defined(SCIO_FIBER_ASAN)
  // This context's stack bounds; a thread's own are learned on its first
  // switch out, from the fiber it switched to.
  const void* asan_bottom_ = nullptr;
  size_t asan_size_ = 0;
  Fiber* asan_from_ = nullptr;  // the fiber that last switched to *this
#endif
#if defined(SCIO_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace scio

#endif  // SRC_SMP_FIBER_H_
