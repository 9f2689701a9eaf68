// RingQueue: a FIFO ring whose first kInline slots live in the queue itself.
//
// A socket's receive queue and a listener's accept backlog hold one or two
// entries almost always; a std::deque would allocate a 512-byte node and
// its map for every fresh queue, and a node every few dozen entries on the
// port allocator's long queues. A ring that outgrows kInline moves to the
// heap, doubling, and keeps that capacity, so a queue that has seen its
// peak never allocates again. Popping resets the slot to T{}, which
// releases whatever the entry owned (a chunk's bytes, a socket reference)
// right away.

#ifndef SRC_NET_RING_QUEUE_H_
#define SRC_NET_RING_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace scio {

template <typename T, uint32_t kInline>
class RingQueue {
  static_assert(kInline > 0 && (kInline & (kInline - 1)) == 0,
                "the inline slot count must be a power of two");

 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  T& front() { return slots()[head_]; }

  void push_back(T value) {
    if (size_ == capacity_) {
      Grow();
    }
    slots()[(head_ + size_) & (capacity_ - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    {
      // Destroyed here: whatever the entry owned goes with it.
      [[maybe_unused]] T gone = std::move(front());
    }
    front() = T{};
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

 private:
  T* slots() { return heap_ != nullptr ? heap_.get() : inline_; }

  void Grow() {
    const uint32_t capacity = capacity_ * 2;
    std::unique_ptr<T[]> bigger = std::make_unique<T[]>(capacity);
    for (uint32_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots()[(head_ + i) & (capacity_ - 1)]);
    }
    heap_ = std::move(bigger);
    head_ = 0;
    capacity_ = capacity;
  }

  T inline_[kInline] = {};
  std::unique_ptr<T[]> heap_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;  // a power of two
};

}  // namespace scio

#endif  // SRC_NET_RING_QUEUE_H_
