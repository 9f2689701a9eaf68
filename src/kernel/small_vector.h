// SmallVector: a vector of trivially copyable values whose first N live in
// the object itself.
//
// The kernel's per-file lists are short: a socket has one status listener
// (its /dev/poll backmap link, epoll or kqueue registration), at most one
// async-signal subscriber and one poll() sleeper, and the wake paths copy a
// handful of entries on every call. A std::vector would cost a heap cell
// for the first element of each list and for each copy. Here the first N
// elements cost nothing; only a list that outgrows N moves to the heap,
// doubling, and it keeps that capacity.

#ifndef SRC_KERNEL_SMALL_VECTOR_H_
#define SRC_KERNEL_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace scio {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>, "elements are moved with std::copy");
  static_assert(N > 0, "at least one inline element");

 public:
  SmallVector() = default;
  // A copy of [first, first + n): the snapshot the wake paths iterate while
  // callbacks may edit the original.
  SmallVector(const T* first, size_t n) {
    Reserve(n);
    std::copy(first, first + n, data_);
    size_ = static_cast<uint32_t>(n);
  }
  SmallVector(const SmallVector&) = delete;
  SmallVector& operator=(const SmallVector&) = delete;
  ~SmallVector() {
    if (data_ != inline_) {
      delete[] data_;
    }
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Reserve(size_t{capacity_} * 2);
    }
    data_[size_++] = value;
  }

  // Remove [first, last), keeping the order of the rest.
  void erase(T* first, T* last) {
    std::copy(last, end(), first);
    size_ -= static_cast<uint32_t>(last - first);
  }
  void erase(T* pos) { erase(pos, pos + 1); }

  // Keeps the capacity.
  void clear() { size_ = 0; }

 private:
  void Reserve(size_t n) {
    if (n <= capacity_) {
      return;
    }
    T* bigger = new T[n];
    std::copy(begin(), end(), bigger);
    if (data_ != inline_) {
      delete[] data_;
    }
    data_ = bigger;
    capacity_ = static_cast<uint32_t>(n);
  }

  T* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  T inline_[N] = {};
};

}  // namespace scio

#endif  // SRC_KERNEL_SMALL_VECTOR_H_
