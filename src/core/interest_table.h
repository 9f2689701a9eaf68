// The in-kernel interest set: a hash table of pollfd interests keyed by fd.
//
// Matches the paper's description (§3.1) exactly: open chaining, fast
// average-case lookup/insert/delete, and "for simplicity, when the average
// bucket size is two, the number of buckets in the hash table is doubled.
// The hash table is never shrunk."
//
// Each Interest also carries the §3.2 hint machinery: the hint bit set by the
// driver's backmap traversal, and the cached result of the last driver poll
// callback.
//
// Pointer stability: entries live in individually-owned nodes chained per
// bucket, so an `Interest*`/`Interest&` obtained from Find/FindOrInsert stays
// valid across later inserts — including ones that double the bucket count —
// until that fd is erased. (The previous layout stored Interest by value in
// bucket vectors, so any growth moved every entry and silently invalidated
// references held across a write() batch.)
//
// Scan index: one mark bit per bucket meaning "may hold an interest that is
// not idle", plus the number of entries in each bucket and in each group of
// 64 buckets (one word of marks), so a stretch of buckets adds up in
// O(groups). The owner marks a bucket whenever one of its interests may
// have stopped being idle; the table itself marks a bucket on insert and
// every bucket on growth. Only the owner's scan unmarks a bucket, and marks
// it again if an entry it visits is left non-idle. A clean bucket can then
// be passed over as "this many idle entries" without touching them, while
// the scan keeps the bucket order, then chain order, that its results
// depend on. The bits and counts are scan bookkeeping: they are not part of
// tracked_bytes().

#ifndef SRC_CORE_INTEREST_TABLE_H_
#define SRC_CORE_INTEREST_TABLE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/backmap.h"
#include "src/kernel/file.h"
#include "src/kernel/poll_types.h"
#include "src/trace/mem_ledger.h"

namespace scio {

// Fields are ordered so the small ones fill the gaps around the two
// pointers: the node stays 40 bytes (checked below).
struct Interest {
  int fd = -1;
  PollEvents events = 0;
  PollEvents cached = 0;   // §3.2: last driver poll result

  // The file this interest was bound to at write() time. If the fd is closed
  // the pointer expires and DP_POLL reports POLLNVAL; if the fd number was
  // reused, DP_POLL rebinds to the new file.
  std::weak_ptr<File> file;
  // fd-table generation of `fd` when `file` was bound: while the slot still
  // carries it, the fd still holds `file` (no refcount needed to tell).
  uint32_t fd_gen = 0;

  // --- §3.2 hint state ---------------------------------------------------------
  bool hint = true;        // driver flagged a change; starts true (never polled)
  bool queued = false;     // on the active scan list (hinted-first mode)
  bool hintable = false;   // the bound driver participates in hinting

  // Owns the registration of this interest on the file's listener list.
  BackmapLinkPtr link;
};
static_assert(sizeof(void*) != 8 || sizeof(Interest) == 40,
              "Interest grew: every byte counts toward bytes/connection");

class InterestHashTable {
 public:
  explicit InterestHashTable(size_t initial_buckets = 8);

  ~InterestHashTable() {
    if (mem_ != nullptr) {
      mem_->Sub(MemSys::kInterests, tracked_bytes());
    }
  }

  InterestHashTable(InterestHashTable&& other) noexcept { *this = std::move(other); }
  InterestHashTable& operator=(InterestHashTable&& other) noexcept {
    if (this == &other) {
      return *this;
    }
    if (mem_ != nullptr) {
      mem_->Sub(MemSys::kInterests, tracked_bytes());
    }
    buckets_ = std::move(other.buckets_);
    entries_ = std::move(other.entries_);
    group_entries_ = std::move(other.group_entries_);
    marks_ = std::move(other.marks_);
    slab_ = std::move(other.slab_);
    free_ = other.free_;
    size_ = other.size_;
    resize_count_ = other.resize_count_;
    mem_ = other.mem_;  // the moved-to table inherits the registered bytes
    other.buckets_.clear();
    other.entries_.clear();
    other.group_entries_.clear();
    other.marks_.clear();
    other.slab_.clear();
    other.free_ = nullptr;
    other.size_ = 0;
    other.mem_ = nullptr;
    return *this;
  }

  // Returns the interest for fd, or nullptr. The pointer stays valid across
  // later inserts (see header comment) until Erase(fd).
  Interest* Find(int fd);

  // Returns the interest for fd, inserting a default one if absent. The
  // reference stays valid across later inserts until Erase(fd).
  Interest& FindOrInsert(int fd);

  // Returns true if an entry was removed.
  bool Erase(int fd);

  size_t size() const { return size_; }
  size_t bucket_count() const { return buckets_.size(); }
  uint64_t resize_count() const { return resize_count_; }

  // Bytes of node slab + bucket array — what the MemSys::kInterests ledger
  // row reports for this table.
  size_t tracked_bytes() const {
    return slab_.size() * sizeof(Node) + buckets_.size() * sizeof(Node*);
  }

  // Account this table's storage in the kernel byte ledger.
  void set_mem_ledger(MemLedger* ledger) {
    if (mem_ != nullptr) {
      mem_->Sub(MemSys::kInterests, tracked_bytes());
    }
    mem_ = ledger;
    if (mem_ != nullptr) {
      mem_->Add(MemSys::kInterests, tracked_bytes());
    }
  }

  // Visit every interest (scan order: bucket order, insertion order within a
  // bucket). The callback must not insert or erase — enforced by assert in
  // debug builds.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t b = 0; b < buckets_.size(); ++b) {
      ForEachInBucket(b, fn);
    }
  }

  // Visit one bucket's chain in insertion order, under ForEach's rules.
  template <typename Fn>
  void ForEachInBucket(size_t bucket, Fn&& fn) {
    iterating_ = true;
    for (Node* node = buckets_[bucket]; node != nullptr; node = node->next) {
      fn(node->interest);
    }
    iterating_ = false;
  }

  // --- scan index (see header comment) -----------------------------------------
  void Mark(int fd) { MarkBucket(BucketOf(fd)); }
  void MarkAll();
  void Unmark(size_t bucket) { marks_[bucket / 64] &= ~(uint64_t{1} << (bucket % 64)); }
  // The first marked bucket at or after `bucket`, or bucket_count() if none.
  size_t NextMarked(size_t bucket) const;
  size_t bucket_entries(size_t bucket) const { return entries_[bucket]; }
  // Entries in buckets [first, last): O(last - first) / 64 plus two ragged
  // ends of under 64 buckets each.
  size_t EntriesIn(size_t first, size_t last) const;

 private:
  // Nodes are owned by slab_ (never freed until the table dies) and chained
  // per bucket; erased nodes park on a free list for reuse.
  struct Node {
    Interest interest;
    Node* next = nullptr;
  };

  size_t BucketOf(int fd) const { return static_cast<size_t>(fd) & (buckets_.size() - 1); }
  void MarkBucket(size_t bucket) { marks_[bucket / 64] |= uint64_t{1} << (bucket % 64); }
  Node* TakeNode();
  void MaybeGrow();

  std::vector<Node*> buckets_;  // bucket count is a power of two
  std::vector<uint32_t> entries_;        // chain length per bucket
  std::vector<uint32_t> group_entries_;  // entries per 64 buckets (one marks_ word)
  std::vector<uint64_t> marks_;          // one scan-index bit per bucket
  std::vector<std::unique_ptr<Node>> slab_;
  Node* free_ = nullptr;
  size_t size_ = 0;
  uint64_t resize_count_ = 0;
  bool iterating_ = false;  // ForEach reentrancy guard (asserted in debug)
  MemLedger* mem_ = nullptr;
};

}  // namespace scio

#endif  // SRC_CORE_INTEREST_TABLE_H_
