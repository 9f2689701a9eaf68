#include "src/smp/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <system_error>
#include <utility>

#if defined(SCIO_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(SCIO_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace scio {

Fiber::Fiber() {
#if defined(SCIO_FIBER_TSAN)
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(std::function<void()> entry) : entry_(std::move(entry)) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  map_bytes_ = page + kStackBytes;
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "mmap fiber stack");
  }
  // Stacks grow down: the guard page sits at the low end.
  if (mprotect(map_, page, PROT_NONE) != 0 || getcontext(&uc_) != 0) {
    const int err = errno;
    munmap(map_, map_bytes_);
    throw std::system_error(err, std::generic_category(), "set up fiber stack");
  }
  uc_.uc_stack.ss_sp = static_cast<char*>(map_) + page;
  uc_.uc_stack.ss_size = kStackBytes;
  uc_.uc_link = nullptr;
  // makecontext passes only int arguments: split `this` into two halves.
  const uint64_t self = reinterpret_cast<uintptr_t>(this);
  makecontext(&uc_, reinterpret_cast<void (*)()>(&Fiber::Start), 2,
              static_cast<int>(static_cast<uint32_t>(self >> 32)),
              static_cast<int>(static_cast<uint32_t>(self)));
#if defined(SCIO_FIBER_ASAN)
  asan_bottom_ = uc_.uc_stack.ss_sp;
  asan_size_ = kStackBytes;
#endif
#if defined(SCIO_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (map_ == nullptr) {
    return;  // a thread's own context
  }
#if defined(SCIO_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(map_, map_bytes_);
}

void Fiber::SwitchTo(Fiber& to) {
  void* fake_stack = nullptr;
  BeginSwitch(to, &fake_stack);
  if (swapcontext(&uc_, &to.uc_) != 0) {
    std::abort();
  }
  EndSwitch(fake_stack);
}

void Fiber::ExitTo(Fiber& to) {
  BeginSwitch(to, nullptr);
  setcontext(&to.uc_);
  std::abort();  // setcontext returns only on failure
}

// An exception escaping `entry_` ends the program (noexcept), as one
// escaping a thread's entry function would: nothing above this frame on the
// fiber's stack can catch it.
void Fiber::Start(int self_hi, int self_lo) noexcept {
  const uint64_t self = (uint64_t{static_cast<uint32_t>(self_hi)} << 32) |
                        static_cast<uint32_t>(self_lo);
  Fiber* fiber = reinterpret_cast<Fiber*>(static_cast<uintptr_t>(self));
  fiber->EndSwitch(nullptr);
  fiber->entry_();
  std::abort();  // returning would end the thread (uc_link is null)
}

void Fiber::BeginSwitch(Fiber& to, void** fake_stack) {
#if defined(SCIO_FIBER_ASAN)
  to.asan_from_ = this;
  __sanitizer_start_switch_fiber(fake_stack, to.asan_bottom_, to.asan_size_);
#else
  (void)fake_stack;
#endif
#if defined(SCIO_FIBER_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#else
  (void)to;
#endif
}

void Fiber::EndSwitch(void* fake_stack) {
#if defined(SCIO_FIBER_ASAN)
  // Also reports the stack we came from: how a thread's own context learns
  // its bounds before anything switches back to it.
  __sanitizer_finish_switch_fiber(fake_stack, &asan_from_->asan_bottom_,
                                  &asan_from_->asan_size_);
#else
  (void)fake_stack;
#endif
}

}  // namespace scio
