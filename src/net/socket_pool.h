// SocketPool: recycled storage for the sockets of one NetStack.
//
// Every connection makes two SimSockets. NetStack makes them with
// std::allocate_shared and a SocketAllocator, so a socket and its shared_ptr
// control block share one fixed-size block, carved from pages of
// kBlocksPerPage and recycled through a free list when the socket's last
// reference, strong or weak, goes. A warm stack connects, accepts and closes
// without touching the heap.
//
// Ownership is plain shared_ptr, so the pool must outlive every socket, and
// sockets can outlive the NetStack
// (the kernel's fd tables and the event queue drop their last references
// after it is destroyed). The pool is therefore reference-counted by its
// allocators: the NetStack holds one, and each control block keeps the copy
// it was made with, so the pool is freed with the last socket.
//
// A free block is poisoned for AddressSanitizer, which would otherwise miss
// a use of a socket after its storage went back to the pool.

#ifndef SRC_NET_SOCKET_POOL_H_
#define SRC_NET_SOCKET_POOL_H_

#include <sanitizer/asan_interface.h>

#include <cassert>
#include <cstddef>
#include <new>
#include <vector>

namespace scio {

class SocketPool {
 public:
  SocketPool() = default;
  SocketPool(const SocketPool&) = delete;
  SocketPool& operator=(const SocketPool&) = delete;

  // Every block has the size of the first request: the one type
  // std::allocate_shared allocates, a SimSocket's control block.
  void* Take(size_t bytes) {
    if (block_bytes_ == 0) {
      block_bytes_ = RoundUp(bytes);
    }
    assert(RoundUp(bytes) == block_bytes_ && "one block size per pool");
    if (free_ == nullptr) {
      AddPage();
    }
    FreeBlock* block = free_;
    ASAN_UNPOISON_MEMORY_REGION(block, block_bytes_);
    free_ = block->next;
    ++live_;
    return block;
  }

  void Give(void* p) {
    --live_;
    PushFree(p);
  }

  // Blocks handed out and not yet given back: one per socket that still has
  // a strong or weak reference.
  size_t live_blocks() const { return live_; }

  void Ref() { ++refs_; }
  void Unref() {
    if (--refs_ == 0) {
      delete this;
    }
  }

 private:
  static constexpr size_t kBlocksPerPage = 64;
  struct FreeBlock {
    FreeBlock* next;
  };

  ~SocketPool() {
    for (void* page : pages_) {
      ASAN_UNPOISON_MEMORY_REGION(page, block_bytes_ * kBlocksPerPage);
      ::operator delete(page);
    }
  }

  static size_t RoundUp(size_t bytes) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }

  void PushFree(void* p) {
    auto* block = static_cast<FreeBlock*>(p);
    block->next = free_;
    free_ = block;
    ASAN_POISON_MEMORY_REGION(block, block_bytes_);
  }

  // Threads a new page's blocks onto the free list in address order.
  void AddPage() {
    auto* page = static_cast<char*>(::operator new(block_bytes_ * kBlocksPerPage));
    pages_.push_back(page);
    for (size_t i = kBlocksPerPage; i-- > 0;) {
      PushFree(page + i * block_bytes_);
    }
  }

  std::vector<void*> pages_;
  FreeBlock* free_ = nullptr;
  size_t block_bytes_ = 0;
  size_t live_ = 0;
  size_t refs_ = 0;
};

// The std::allocate_shared allocator over a SocketPool; each copy holds a
// reference to the pool.
template <typename T>
class SocketAllocator {
 public:
  using value_type = T;

  explicit SocketAllocator(SocketPool* pool) : pool_(pool) { pool_->Ref(); }
  SocketAllocator(const SocketAllocator& other) : SocketAllocator(other.pool_) {}
  template <typename U>
  SocketAllocator(const SocketAllocator<U>& other)  // NOLINT(google-explicit-constructor)
      : SocketAllocator(other.pool()) {}
  SocketAllocator& operator=(const SocketAllocator&) = delete;
  ~SocketAllocator() { pool_->Unref(); }

  T* allocate(size_t n) { return static_cast<T*>(pool_->Take(n * sizeof(T))); }
  void deallocate(T* p, size_t) { pool_->Give(p); }

  SocketPool* pool() const { return pool_; }

  template <typename U>
  bool operator==(const SocketAllocator<U>& other) const {
    return pool_ == other.pool();
  }

 private:
  SocketPool* pool_;
};

}  // namespace scio

#endif  // SRC_NET_SOCKET_POOL_H_
