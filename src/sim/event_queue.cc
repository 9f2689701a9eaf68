#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace scio {

namespace {
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}
}  // namespace

void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelAt(index_, gen_);
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->PendingAt(index_, gen_);
}

EventQueue::EventQueue() {
  std::fill(std::begin(slot_head_), std::end(slot_head_), kNil);
}

EventQueue::~EventQueue() = default;

uint32_t EventQueue::AllocNode() {
  if (free_head_ == kNil) {
    const uint32_t base = static_cast<uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    cb_chunks_.push_back(std::make_unique<EventCallback[]>(kChunkSize));
    if (mem_hook_ != nullptr) {
      mem_hook_(mem_ctx_,
                static_cast<long>(kChunkSize * (sizeof(Node) + sizeof(EventCallback))));
    }
    // Thread the fresh chunk onto the free list, lowest index on top.
    for (size_t i = kChunkSize; i > 0; --i) {
      Node& n = chunks_.back()[i - 1];
      n.next = free_head_;
      free_head_ = base + static_cast<uint32_t>(i - 1);
    }
  }
  const uint32_t idx = free_head_;
  free_head_ = node(idx).next;
  return idx;
}

void EventQueue::FreeNode(uint32_t idx) {
  Node& n = node(idx);
  cb(idx).Reset();
  ++n.gen;  // invalidate every outstanding handle to the old event
  n.state = NodeState::kFree;
  n.cancelled = false;
  n.next = free_head_;
  free_head_ = idx;
}

void EventQueue::PushSlot(int level, int index, uint32_t idx) {
  // Push-front: touches only the new node (warm) and the slot-head array.
  const int s = level * kSlotsPerLevel + index;
  Node& n = node(idx);
  ++counters_.routes;
  n.state = NodeState::kInSlot;
  n.next = slot_head_[s];
  slot_head_[s] = idx;
  occupied_[level] |= uint64_t{1} << index;
}

uint32_t EventQueue::DetachSlot(int level, int index) {
  const int s = level * kSlotsPerLevel + index;
  const uint32_t head = slot_head_[s];
  slot_head_[s] = kNil;
  occupied_[level] &= ~(uint64_t{1} << index);
  return head;
}

void EventQueue::Route(uint32_t idx) {
  const uint64_t tick = Tick(node(idx).when);
  const uint64_t cur = current_tick_;
  assert(tick >= cur && "wheel nodes never precede the wheel origin");
  const uint64_t delta = tick - cur;
  int level = delta == 0 ? 0 : (63 - std::countl_zero(delta)) / kLevelBits;
  // A level's 64 slots only disambiguate ticks within one rotation of the
  // cursor; if the delta straddles a rotation boundary, bump up a level. The
  // top level spans every SimTime, so the bump always stops there.
  while ((tick >> (level * kLevelBits)) - (cur >> (level * kLevelBits)) >=
         static_cast<uint64_t>(kSlotsPerLevel)) {
    ++level;
  }
  assert(level < kLevels);
  const int index = static_cast<int>((tick >> (level * kLevelBits)) & (kSlotsPerLevel - 1));
  PushSlot(level, index, idx);
}

void EventQueue::InsertDue(uint32_t idx) {
  Node& n = node(idx);
  n.state = NodeState::kInDue;
  if (due_pos_ == due_.size()) {
    due_.clear();
    due_pos_ = 0;
  }
  // The new node has the largest seq so far: it goes after every entry with
  // a time <= its own.
  const auto head = due_.begin() + static_cast<std::ptrdiff_t>(due_pos_);
  const auto pos = due_.insert(
      std::upper_bound(head, due_.end(), n.when,
                       [this](SimTime when, uint32_t other) { return when < node(other).when; }),
      idx);
  if (pos == due_.begin() + static_cast<std::ptrdiff_t>(due_pos_)) {
    head_when_ = n.when;
  }
}

// sciolint: hotpath
EventHandle EventQueue::Schedule(SimTime when, Callback&& cb) {
  if (when < 0) {
    when = 0;
  }
  const uint32_t idx = AllocNode();
  Node& n = node(idx);
  n.when = when;
  n.seq = next_seq_++;
  n.cancelled = false;
  this->cb(idx) = std::move(cb);
  if (observer_ != nullptr) {
    observer_(observer_ctx_, Op::kSchedule, when, n.seq);
  }
  // Every wheel node lies after the origin's tick, so an event at or before
  // it joins the due run, in order, and the origin never moves back.
  if (Tick(when) > current_tick_) {
    Route(idx);
  } else {
    InsertDue(idx);
  }
  ++live_count_;
  return EventHandle(this, idx, n.gen);
}

void EventQueue::CancelAt(uint32_t idx, uint32_t gen) {
  Node& n = node(idx);
  if (n.gen != gen || n.cancelled) {
    return;  // already fired, cancelled, or the node was recycled
  }
  // Lazy unlink: the node stays chained (and its callback alive) until the
  // wheel next visits its slot or the due run reaches it.
  n.cancelled = true;
  --live_count_;
  if (n.state == NodeState::kInDue && due_[due_pos_] == idx) {
    head_when_ = kHeadCancelled;
  }
  if (observer_ != nullptr) {
    observer_(observer_ctx_, Op::kCancel, n.when, n.seq);
  }
}

bool EventQueue::PendingAt(uint32_t idx, uint32_t gen) const {
  const Node& n = node(idx);
  return n.gen == gen && !n.cancelled;
}

// sciolint: hotpath
void EventQueue::CollectDue() {
  const int index = static_cast<int>(current_tick_ & (kSlotsPerLevel - 1));
  uint32_t it = DetachSlot(0, index);
  due_.clear();
  due_pos_ = 0;
  while (it != kNil) {
    const uint32_t next = node(it).next;
    if (next != kNil) {
      Prefetch(&node(next));
    }
    Node& n = node(it);
    if (n.cancelled) {
      FreeNode(it);  // live_count_ already dropped at Cancel time
    } else {
      // The origin never moves back, so a level-0 slot only ever holds the
      // one tick it stands for.
      assert(Tick(n.when) == current_tick_);
      n.state = NodeState::kInDue;
      due_.push_back(it);
    }
    it = next;
  }
  // Events fire in (when, seq) order no matter which wheel level they
  // arrived from — this sort is what makes the wheel replay-identical to the
  // old (time, seq) priority queue.
  if (due_.size() > 1) {
    std::sort(due_.begin(), due_.end(), [this](uint32_t a, uint32_t b) {
      const Node& x = node(a);
      const Node& y = node(b);
      return x.when != y.when ? x.when < y.when : x.seq < y.seq;
    });
  }
}

bool EventQueue::FindNextSlot(int* level, int* index, uint64_t* lower_bound) {
  ++counters_.slot_searches;
  uint64_t best = 0;
  bool found = false;
  const uint64_t cur = current_tick_;
  for (int l = 0; l < kLevels; ++l) {
    const uint64_t occ = occupied_[l];
    if (occ == 0) {
      continue;
    }
    const int shift = l * kLevelBits;
    const uint64_t pos = cur >> shift;
    const int cursor = static_cast<int>(pos & (kSlotsPerLevel - 1));
    uint64_t cand_pos;
    int idx;
    if (const uint64_t ahead = occ >> cursor; ahead != 0) {
      const int off = std::countr_zero(ahead);
      idx = cursor + off;
      cand_pos = pos + static_cast<uint64_t>(off);
    } else {
      // Occupied slots before the cursor belong to the next rotation.
      idx = std::countr_zero(occ);
      cand_pos = pos - static_cast<uint64_t>(cursor) +
                 static_cast<uint64_t>(kSlotsPerLevel + idx);
    }
    // The cursor slot of a coarse level starts before the origin: its lower
    // bound is the origin itself.
    const uint64_t t = std::max(cand_pos << shift, cur);
    // `<=`: on ties a higher level wins, so far slots cascade down before the
    // level-0 slot drains — required for same-time seq ordering.
    if (!found || t <= best) {
      best = t;
      *level = l;
      *index = idx;
      found = true;
    }
  }
  *lower_bound = best;
  return found;
}

// sciolint: hotpath
void EventQueue::Cascade(int level, int index) {
  uint32_t it = DetachSlot(level, index);
  while (it != kNil) {
    const uint32_t next = node(it).next;
    if (next != kNil) {
      Prefetch(&node(next));  // chain nodes are scattered across the slab
    }
    if (node(it).cancelled) {
      FreeNode(it);
    } else {
      Route(it);
    }
    it = next;
  }
}

// sciolint: hotpath
SimTime EventQueue::Resolve() {
  counters_.head_cancel_resolves += head_when_ == kHeadCancelled;
  counters_.cancelled_peek_resolves += head_when_ == kPeekCancelled;
  head_when_ = kNoHead;
  // Drop cancelled events parked at the head of the due run.
  while (due_pos_ < due_.size()) {
    const uint32_t idx = due_[due_pos_];
    const Node& n = node(idx);
    if (!n.cancelled) {
      head_when_ = n.when;
      return head_when_;
    }
    FreeNode(idx);
    ++due_pos_;
  }
  due_.clear();
  due_pos_ = 0;
  if (live_count_ == 0) {
    return kSimTimeNever;
  }
  while (true) {
    int level = 0;
    int index = 0;
    uint64_t lower_bound = 0;
    if (!FindNextSlot(&level, &index, &lower_bound)) {
      return kSimTimeNever;  // unreachable while live_count_ > 0
    }
    current_tick_ = lower_bound;
    if (level == 0) {
      CollectDue();
      if (!due_.empty()) {
        head_when_ = node(due_.front()).when;
        return head_when_;
      }
      // The slot only held cancelled nodes; they have been reaped, so the
      // search now makes progress.
    } else {
      Cascade(level, index);
    }
  }
}

// sciolint: hotpath
bool EventQueue::RunNext() {
  if (head_when_ < 0 && Resolve() == kSimTimeNever) {
    return false;
  }
  // The due-run head is live: fire it.
  const uint32_t idx = due_[due_pos_++];
  EventCallback callback = std::move(cb(idx));
  --live_count_;
  ++executed_count_;
  if (observer_ != nullptr) {
    observer_(observer_ctx_, Op::kRunNext, node(idx).when, node(idx).seq);
  }
  FreeNode(idx);  // before the callback runs: Cancel/pending from inside it
                  // see a consistent "already fired" state
  // Peek at the next entry so the probes that follow stay inline.
  head_when_ = kNoHead;
  if (due_pos_ < due_.size()) {
    const Node& next = node(due_[due_pos_]);
    head_when_ = next.cancelled ? kPeekCancelled : next.when;
  }
  callback();
  return true;
}

void EventQueue::Clear() {
  for (size_t i = due_pos_; i < due_.size(); ++i) {
    FreeNode(due_[i]);
  }
  due_.clear();
  due_pos_ = 0;
  head_when_ = kNoHead;
  for (int l = 0; l < kLevels; ++l) {
    uint64_t occ = occupied_[l];
    while (occ != 0) {
      const int index = std::countr_zero(occ);
      occ &= occ - 1;
      uint32_t it = DetachSlot(l, index);
      while (it != kNil) {
        const uint32_t next = node(it).next;
        FreeNode(it);
        it = next;
      }
    }
  }
  live_count_ = 0;
}

}  // namespace scio
