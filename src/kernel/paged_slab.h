// Paged slot storage and intrusive index-linked lists — the building blocks
// of the million-connection plane.
//
// Everything fd-shaped in the simulator (the descriptor table, server
// connection state, interest sets) used to live in containers whose constants
// stop working past ~10^5 entries: full-table vector copies on growth,
// per-entry heap nodes, O(open) snapshot scans. PagedStore replaces them
// with:
//
//   - fixed-size pages allocated on demand (a slot's page materializes the
//     first time any slot in it is used; the table itself is never copied —
//     the page-pointer directory is sized once from the limit);
//   - per-page occupancy bitmaps plus a page-level full bitmap, so
//     lowest-first allocation and ascending-index iteration both jump
//     straight to the next relevant slot with countr_zero instead of
//     scanning slots one by one;
//   - generation-tagged slots: releasing a slot bumps its generation, so a
//     stale handle (index, generation) from before a reuse can never resolve
//     to the new occupant;
//   - an optional MemLedger hookup that accounts every page under its
//     subsystem the moment it is allocated.
//
// IndexList threads nodes that live in a PagedStore onto intrusive lists
// whose links are slot *indices* stored inside the node — 8 bytes per list
// membership, no per-node allocation, O(1) push/unlink, and an iteration
// order that is an explicit function of insertion order (never of heap
// addresses), which is what keeps seeded runs bit-identical.

#ifndef SRC_KERNEL_PAGED_SLAB_H_
#define SRC_KERNEL_PAGED_SLAB_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/trace/mem_ledger.h"

namespace scio {

template <typename T, size_t kSlotsPerPage = 512>
class PagedStore {
  static_assert((kSlotsPerPage & (kSlotsPerPage - 1)) == 0 && kSlotsPerPage >= 64,
                "page size must be a power of two and at least one bitmap word");

 public:
  explicit PagedStore(size_t limit = 0) { set_limit(limit); }

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  ~PagedStore() {
    if (mem_ != nullptr) {
      mem_->Sub(mem_sys_, tracked_bytes());
    }
  }

  // Must be called before any slot is used (the page directory is sized once
  // so it never reallocates mid-run).
  void set_limit(size_t limit) {
    assert(allocated_pages_ == 0 && "set_limit after pages exist");
    limit_ = limit;
    const size_t max_pages = (limit + kSlotsPerPage - 1) / kSlotsPerPage;
    pages_.resize(max_pages);
    full_bits_.assign((max_pages + 63) / 64, 0);
  }

  // Attach the byte ledger. Call before the first allocation; already-held
  // pages are recorded immediately so the ledger never undercounts.
  void set_mem_ledger(MemLedger* ledger, MemSys sys) {
    if (mem_ != nullptr) {
      mem_->Sub(mem_sys_, tracked_bytes());
    }
    mem_ = ledger;
    mem_sys_ = sys;
    if (mem_ != nullptr) {
      mem_->Add(mem_sys_, tracked_bytes());
    }
  }

  size_t limit() const { return limit_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t allocated_pages() const { return allocated_pages_; }

  // Bytes of page storage currently held — what the MemLedger subsystem row
  // reports. Slot payloads' own heap (string capacity etc.) is not included;
  // parked slots deliberately retain it for reuse.
  size_t tracked_bytes() const { return allocated_pages_ * sizeof(Page); }

  bool Contains(size_t i) const {
    if (i >= limit_) {
      return false;
    }
    const Page* page = pages_[i / kSlotsPerPage].get();
    return page != nullptr && (page->bits[(i % kSlotsPerPage) / 64] &
                               (uint64_t{1} << (i % 64))) != 0;
  }

  // nullptr when the slot is absent.
  T* Get(size_t i) { return Contains(i) ? &pages_[i / kSlotsPerPage]->slots[i % kSlotsPerPage] : nullptr; }
  const T* Get(size_t i) const {
    return Contains(i) ? &pages_[i / kSlotsPerPage]->slots[i % kSlotsPerPage] : nullptr;
  }

  // Unchecked access to a slot known to be present (hot paths).
  T& At(size_t i) {
    assert(Contains(i));
    return pages_[i / kSlotsPerPage]->slots[i % kSlotsPerPage];
  }

  // Generation tag of slot i; bumped every release, so (index, generation)
  // pairs taken before a reuse can never resolve to the new occupant. Only
  // meaningful while Contains(i).
  uint32_t generation(size_t i) const {
    const Page* page = pages_[i / kSlotsPerPage].get();
    return page == nullptr ? 0 : page->gens[i % kSlotsPerPage];
  }

  // Mark slot i occupied and return its value object. The object is reused
  // across occupancies (default-constructed when the page materializes, then
  // parked on release), so callers reset the fields they care about — which
  // is exactly what lets churny slots keep their heap capacity.
  T& EmplaceAt(size_t i) {
    assert(i < limit_ && !Contains(i));
    Page* page = EnsurePage(i / kSlotsPerPage);
    const size_t s = i % kSlotsPerPage;
    page->bits[s / 64] |= uint64_t{1} << (s % 64);
    ++page->used;
    ++count_;
    UpdateFullBit(i / kSlotsPerPage, page);
    return page->slots[s];
  }

  // Mark slot i free and bump its generation. The value object stays parked
  // in place; the caller is responsible for resetting state it must not leak
  // (e.g. dropping a shared_ptr payload).
  void ReleaseAt(size_t i) {
    assert(Contains(i));
    Page* page = pages_[i / kSlotsPerPage].get();
    const size_t s = i % kSlotsPerPage;
    page->bits[s / 64] &= ~(uint64_t{1} << (s % 64));
    ++page->gens[s];
    --page->used;
    --count_;
    full_bits_[(i / kSlotsPerPage) / 64] &= ~(uint64_t{1} << ((i / kSlotsPerPage) % 64));
    if (i / kSlotsPerPage < lowest_maybe_free_page_) {
      lowest_maybe_free_page_ = i / kSlotsPerPage;
    }
  }

  // Occupy and return the lowest free slot, or -1 when every slot below the
  // limit is taken. O(1) amortized: the page-level full bitmap plus a
  // lowest-free hint jump straight to the first page with room, and the
  // page's own bitmap finds the slot with countr_zero.
  long AllocateLowest() {
    const size_t max_pages = pages_.size();
    size_t p = lowest_maybe_free_page_;
    size_t found = max_pages;
    for (size_t w = p / 64; w < full_bits_.size(); ++w) {
      uint64_t avail = ~full_bits_[w];
      if (w == p / 64) {
        avail &= ~uint64_t{0} << (p % 64);
      }
      if (avail != 0) {
        found = w * 64 + static_cast<size_t>(std::countr_zero(avail));
        break;
      }
    }
    if (found >= max_pages) {
      // sciolint: allow(E2) -- container full sentinel, not a syscall error
      return -1;
    }
    Page* page = EnsurePage(found);
    for (size_t pw = 0; pw < kWordsPerPage; ++pw) {
      const uint64_t free = ~page->bits[pw];
      if (free != 0) {
        const size_t s = pw * 64 + static_cast<size_t>(std::countr_zero(free));
        const size_t idx = found * kSlotsPerPage + s;
        assert(idx < limit_ && "full bitmap out of sync");
        page->bits[pw] |= uint64_t{1} << (s % 64);
        ++page->used;
        ++count_;
        UpdateFullBit(found, page);
        lowest_maybe_free_page_ = found;
        return static_cast<long>(idx);
      }
    }
    assert(false && "page marked non-full but no free slot");
    // sciolint: allow(E2) -- unreachable bitmap-desync sentinel, not a syscall
    return -1;
  }

  // Visit every occupied slot in ascending index order: fn(index, T&). The
  // callback must not insert or release (asserted in debug builds) —
  // deferred mutation is the contract, same as InterestHashTable::ForEach.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    assert(!iterating_ && "re-entrant PagedStore::ForEach");
    iterating_ = true;
    for (size_t p = 0; p < pages_.size(); ++p) {
      Page* page = pages_[p].get();
      if (page == nullptr || page->used == 0) {
        continue;
      }
      for (size_t w = 0; w < kWordsPerPage; ++w) {
        uint64_t bits = page->bits[w];
        while (bits != 0) {
          const size_t s = w * 64 + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          fn(p * kSlotsPerPage + s, page->slots[s]);
        }
      }
    }
    iterating_ = false;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t p = 0; p < pages_.size(); ++p) {
      const Page* page = pages_[p].get();
      if (page == nullptr || page->used == 0) {
        continue;
      }
      for (size_t w = 0; w < kWordsPerPage; ++w) {
        uint64_t bits = page->bits[w];
        while (bits != 0) {
          const size_t s = w * 64 + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          fn(p * kSlotsPerPage + s, page->slots[s]);
        }
      }
    }
  }

 private:
  static constexpr size_t kWordsPerPage = kSlotsPerPage / 64;

  struct Page {
    std::array<T, kSlotsPerPage> slots{};
    std::array<uint32_t, kSlotsPerPage> gens{};
    uint64_t bits[kWordsPerPage] = {};
    uint32_t used = 0;
  };

  // Slots the page can legally hold: the last page may be partial.
  size_t PageCapacity(size_t p) const {
    const size_t base = p * kSlotsPerPage;
    return limit_ - base < kSlotsPerPage ? limit_ - base : kSlotsPerPage;
  }

  void UpdateFullBit(size_t p, const Page* page) {
    if (page->used == PageCapacity(p)) {
      full_bits_[p / 64] |= uint64_t{1} << (p % 64);
    }
  }

  Page* EnsurePage(size_t p) {
    if (pages_[p] == nullptr) {
      pages_[p] = std::make_unique<Page>();
      ++allocated_pages_;
      if (mem_ != nullptr) {
        mem_->Add(mem_sys_, sizeof(Page));
      }
    }
    return pages_[p].get();
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<uint64_t> full_bits_;  // bit p: page p exists and is full
  size_t limit_ = 0;
  size_t count_ = 0;
  size_t allocated_pages_ = 0;
  size_t lowest_maybe_free_page_ = 0;
  bool iterating_ = false;
  MemLedger* mem_ = nullptr;
  MemSys mem_sys_ = MemSys::kOtherMem;
};

// --- intrusive index-linked lists ------------------------------------------

inline constexpr int32_t kNilIndex = -1;       // end of list
inline constexpr int32_t kDetachedIndex = -2;  // not on the list at all

struct IndexLink {
  int32_t prev = kDetachedIndex;
  int32_t next = kDetachedIndex;
  bool linked() const { return prev != kDetachedIndex; }
};

// Doubly-linked list over nodes living in a PagedStore, linked by slot index
// through an IndexLink member. Push order is the iteration order. Unlinking
// the node an iteration currently stands on is safe as long as the iteration
// reads `next` before invoking whatever unlinks (the walk helpers in
// ConnTable do exactly that).
template <typename Node, IndexLink Node::*Link, size_t kSlotsPerPage = 512>
class IndexList {
 public:
  explicit IndexList(PagedStore<Node, kSlotsPerPage>* store) : store_(store) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  int32_t front() const { return head_; }
  int32_t back() const { return tail_; }

  int32_t NextOf(int32_t i) const { return L(i).next; }
  bool Linked(int32_t i) const { return L(i).linked(); }

  void PushBack(int32_t i) {
    IndexLink& link = L(i);
    assert(!link.linked() && "PushBack on a linked node");
    link.prev = tail_;
    link.next = kNilIndex;
    if (tail_ != kNilIndex) {
      L(tail_).next = i;
    } else {
      head_ = i;
    }
    tail_ = i;
    ++size_;
  }

  void Unlink(int32_t i) {
    IndexLink& link = L(i);
    assert(link.linked() && "Unlink on a detached node");
    if (link.prev != kNilIndex) {
      L(link.prev).next = link.next;
    } else {
      head_ = link.next;
    }
    if (link.next != kNilIndex) {
      L(link.next).prev = link.prev;
    } else {
      tail_ = link.prev;
    }
    link.prev = kDetachedIndex;
    link.next = kDetachedIndex;
    --size_;
  }

  // Refresh a node's position to the back (most recent). The workhorse of
  // the activity-ordered expiry list: every touch is O(1), and the front of
  // the list is always the least recently active node.
  void MoveToBack(int32_t i) {
    if (tail_ == i) {
      return;
    }
    Unlink(i);
    PushBack(i);
  }

 private:
  IndexLink& L(int32_t i) { return store_->At(static_cast<size_t>(i)).*Link; }
  const IndexLink& L(int32_t i) const {
    return const_cast<PagedStore<Node, kSlotsPerPage>*>(store_)->At(static_cast<size_t>(i)).*Link;
  }

  PagedStore<Node, kSlotsPerPage>* store_;
  int32_t head_ = kNilIndex;
  int32_t tail_ = kNilIndex;
  size_t size_ = 0;
};

}  // namespace scio

#endif  // SRC_KERNEL_PAGED_SLAB_H_
