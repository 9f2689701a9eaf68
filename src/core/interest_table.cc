#include "src/core/interest_table.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <numeric>
#include <utility>

namespace scio {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

InterestHashTable::InterestHashTable(size_t initial_buckets)
    : buckets_(RoundUpPow2(initial_buckets < 1 ? 1 : initial_buckets), nullptr),
      entries_(buckets_.size(), 0),
      group_entries_((buckets_.size() + 63) / 64, 0),
      marks_((buckets_.size() + 63) / 64, 0) {}

void InterestHashTable::MarkAll() {
  std::fill(marks_.begin(), marks_.end(), ~uint64_t{0});
  if (buckets_.size() < 64) {
    marks_[0] = (uint64_t{1} << buckets_.size()) - 1;  // no bits past the end
  }
}

size_t InterestHashTable::NextMarked(size_t bucket) const {
  for (size_t w = bucket / 64; w < marks_.size(); ++w) {
    uint64_t bits = marks_[w];
    if (w == bucket / 64) {
      bits &= ~uint64_t{0} << (bucket % 64);
    }
    if (bits != 0) {
      return w * 64 + static_cast<size_t>(std::countr_zero(bits));
    }
  }
  return buckets_.size();
}

size_t InterestHashTable::EntriesIn(size_t first, size_t last) const {
  auto sum = [this](size_t from, size_t to) {
    return std::accumulate(entries_.begin() + static_cast<std::ptrdiff_t>(from),
                           entries_.begin() + static_cast<std::ptrdiff_t>(to), size_t{0});
  };
  size_t b = std::min(last, (first + 63) / 64 * 64);
  size_t n = sum(first, b);
  for (; b + 64 <= last; b += 64) {
    n += group_entries_[b / 64];
  }
  return n + sum(b, last);
}

Interest* InterestHashTable::Find(int fd) {
  for (Node* node = buckets_[BucketOf(fd)]; node != nullptr; node = node->next) {
    if (node->interest.fd == fd) {
      return &node->interest;
    }
  }
  return nullptr;
}

InterestHashTable::Node* InterestHashTable::TakeNode() {
  if (free_ != nullptr) {
    Node* node = free_;
    free_ = node->next;
    node->interest = Interest{};  // scrub state left by the previous tenant
    node->next = nullptr;
    return node;
  }
  slab_.push_back(std::make_unique<Node>());
  if (mem_ != nullptr) {
    mem_->Add(MemSys::kInterests, sizeof(Node));
  }
  return slab_.back().get();
}

Interest& InterestHashTable::FindOrInsert(int fd) {
  if (Interest* found = Find(fd)) {
    return *found;
  }
  assert(!iterating_ && "must not insert during InterestHashTable::ForEach");
  MaybeGrow();
  Node* node = TakeNode();
  node->interest.fd = fd;
  // Append at the tail to preserve insertion order within the bucket (the
  // scan order tests and seeded runs depend on it). Chains average <= 2
  // entries by the doubling rule, so the walk is constant time.
  const size_t bucket = BucketOf(fd);
  Node** tail = &buckets_[bucket];
  while (*tail != nullptr) {
    tail = &(*tail)->next;
  }
  *tail = node;
  ++entries_[bucket];
  ++group_entries_[bucket / 64];
  MarkBucket(bucket);  // never scanned yet
  ++size_;
  return node->interest;
}

bool InterestHashTable::Erase(int fd) {
  assert(!iterating_ && "must not erase during InterestHashTable::ForEach");
  const size_t bucket = BucketOf(fd);
  Node** link = &buckets_[bucket];
  while (*link != nullptr) {
    Node* node = *link;
    if (node->interest.fd == fd) {
      *link = node->next;
      --entries_[bucket];
      --group_entries_[bucket / 64];
      node->interest = Interest{};  // release File/BackmapLink refs promptly
      node->next = free_;
      free_ = node;
      --size_;
      return true;
    }
    link = &node->next;
  }
  return false;
}

void InterestHashTable::MaybeGrow() {
  // Paper §3.1: double the bucket count when the average bucket size reaches
  // two; never shrink.
  if (size_ + 1 < buckets_.size() * 2) {
    return;
  }
  std::vector<Node*> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, nullptr);
  entries_.assign(buckets_.size(), 0);
  group_entries_.assign((buckets_.size() + 63) / 64, 0);
  marks_.resize((buckets_.size() + 63) / 64);
  MarkAll();  // entries moved buckets: none has been checked where it lands
  ++resize_count_;
  if (mem_ != nullptr) {
    mem_->Add(MemSys::kInterests, old.size() * sizeof(Node*));
  }
  // Rehash by walking old buckets in order and appending to new tails: the
  // relative order of entries sharing a new bucket is preserved, keeping the
  // post-resize scan order identical to the by-value implementation.
  std::vector<Node*> tails(buckets_.size(), nullptr);
  for (Node* node : old) {
    while (node != nullptr) {
      Node* next = node->next;
      const size_t b = BucketOf(node->interest.fd);
      node->next = nullptr;
      ++entries_[b];
      ++group_entries_[b / 64];
      if (tails[b] == nullptr) {
        buckets_[b] = node;
      } else {
        tails[b]->next = node;
      }
      tails[b] = node;
      node = next;
    }
  }
}

}  // namespace scio
