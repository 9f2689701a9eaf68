// Pending-event scheduler for the discrete-event simulator.
//
// Events are (time, sequence, callback) triples ordered by time, with the
// insertion sequence number breaking ties so that same-time events run in
// schedule order — a requirement for deterministic replays. That ordering
// contract is identical to the original priority-queue engine; only the
// mechanics changed.
//
// Implementation: a hierarchical timer wheel (Varghese/Lauck; the same shape
// as the Linux kernel's timer wheel) backed by a slab of pooled event nodes.
//
//   - Wheel ticks are 2^kTickBits ns (65.536 µs). kLevels levels of 64
//     slots each; level l has a granularity of 64^l ticks, and the top level
//     spans every SimTime, so no event is ever parked beyond the horizon. The
//     simulator's two dominant delays sit low: a link delivery 131–262 µs
//     out (a 200 µs one is 3-4 ticks) lands on level 0, whose rotation is
//     4.2 ms, and never cascades; an inactive connection's 300–500 ms
//     trickle timer (400 ms is ~6,100 ticks) lands on level 2, past level
//     1's 268 ms rotation, and cascades at most twice. The width was picked
//     with bench_micro_engine's replay_fig15 row (EXPERIMENTS.md).
//   - Scheduling appends an intrusive node to one slot: O(1), no allocation
//     once the slab has warmed up. Callbacks live inline in the node
//     (EventCallback), so the steady state performs zero heap traffic.
//   - Advancing cascades far slots toward level 0 using per-level occupancy
//     bitmaps to jump straight to the next occupied slot — no tick-at-a-time
//     stepping, which matters because simulated time moves in irregular
//     leaps.
//   - When the earliest slot reaches level 0 it is drained into the due
//     run: that tick's events sorted by (time, sequence), which restores
//     global FIFO order for same-time events even when some of them cascaded
//     down from far levels. A Schedule at or before the run's tick (a packet
//     sent from inside a callback, a wakeup, or an event earlier than the
//     tick NextTime() already resolved) is inserted into the run in order.
//     Every wheel node lies after the run, so that is its exact place, and
//     the wheel origin only ever moves forward.
//   - Slot lists are singly linked and push-front: scheduling touches only
//     the new node and the slot-head array, never another (cold) node. The
//     resulting arbitrary intra-slot order is harmless because the due-run
//     sort is what establishes firing order.
//   - NextTime() is an inline read of the due-run head's time; only an
//     exhausted or cancelled head takes the slow path that drains the next
//     slot, so the simulator's repeated "anything due before t?" probes
//     cost a load and a compare.
//   - Cancellation is an index + generation counter: EventHandle stays
//     copyable and trivially destructible, Cancel() after the event fired
//     (or on an empty handle, or twice) is a safe no-op, and freed nodes are
//     recycled through a free list. Cancelled nodes are unlinked lazily, when
//     the wheel next visits their slot or the due run reaches them (same
//     discipline the old engine used for its heap).
//
// Lifetime: handles weakly reference the queue by pointer, so a handle must
// not be cancelled/queried after its EventQueue is destroyed. Every holder
// in the tree (client timers) dies before the Simulator, which is always
// declared first.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_callback.h"
#include "src/sim/time.h"

namespace scio {

class EventQueue;

// Handle to a scheduled event; allows cancellation. Copyable and cheap.
// A default-constructed handle refers to nothing and Cancel() is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  // Prevent the event from firing. Safe to call multiple times, after the
  // event has fired, or on an empty handle.
  void Cancel();

  // True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t index, uint32_t gen)
      : queue_(queue), index_(index), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t index_ = 0;
  uint32_t gen_ = 0;
};

class EventQueue {
 public:
  using Callback = EventCallback;

  // Width of one wheel tick (level-0 slot), 2^kTickBits ns.
  static constexpr int kTickBits = 16;
  static constexpr SimTime kTickNs = SimTime{1} << kTickBits;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  // Schedule `cb` at absolute time `when` (negative times count as 0).
  // Returns a cancellation handle. A `when` earlier than events already
  // fired still fires next, ahead of every pending event. The callback is
  // moved once, into its node.
  EventHandle Schedule(SimTime when, Callback&& cb);

  bool empty() const { return live_count_ == 0; }

  // Number of scheduled (non-cancelled, non-fired) events.
  size_t size() const { return live_count_; }

  // Time of the earliest live event; kSimTimeNever when empty.
  SimTime NextTime() {
    if (observer_ != nullptr) {
      observer_(observer_ctx_, Op::kNextTime, 0, 0);
    }
    return head_when_ >= 0 ? head_when_ : Resolve();
  }

  // Pop and run the earliest live event. Returns false if the queue is empty.
  bool RunNext();

  // Drop every pending event without running it. Callbacks (and anything they
  // own, e.g. sockets captured by in-flight packet deliveries) are destroyed
  // here, so call this while the objects they reference are still alive.
  // Pooled nodes are retained for reuse.
  void Clear();

  // Total events ever executed; useful for progress accounting in tests.
  uint64_t executed_count() const { return executed_count_; }

  // Bytes of pooled node + callback storage currently held.
  size_t tracked_bytes() const {
    return chunks_.size() * kChunkSize * (sizeof(Node) + sizeof(EventCallback));
  }

  // Engine-op observer: sees every Schedule (its time and sequence number),
  // every Cancel that takes effect, every NextTime() probe and every fired
  // event, in call order. A plain function pointer like the mem hook, so
  // scio_sim stays below scio_trace; FlightRecorder carries one into a run.
  // Observing changes nothing the engine does.
  enum class Op : uint8_t { kSchedule, kCancel, kNextTime, kRunNext };
  using Observer = void (*)(void* ctx, Op op, SimTime when, uint64_t seq);
  void set_observer(Observer observer, void* ctx) {
    observer_ = observer;
    observer_ctx_ = ctx;
  }

  // Real-cost counters of the wheel's own work: nodes pushed into a slot
  // (at scheduling or by a cascade) and occupied-slot searches. And two
  // thin due-run paths, each counted where a probe or fire resolves it:
  // a cancelled head whose time NextTime() had cached, and a cancelled
  // entry that RunNext's peek found next in line.
  struct Counters {
    uint64_t routes = 0;
    uint64_t slot_searches = 0;
    uint64_t head_cancel_resolves = 0;
    uint64_t cancelled_peek_resolves = 0;
  };
  const Counters& counters() const { return counters_; }

  // Byte-accounting hook: called with the signed delta whenever the pool
  // grows (and with -tracked_bytes() when the hook is swapped out). A plain
  // function pointer, not MemLedger, so scio_sim stays below scio_trace in
  // the library graph; SimKernel registers a thunk into its ledger.
  using MemHook = void (*)(void* ctx, long delta_bytes);
  void set_mem_hook(MemHook hook, void* ctx) {
    if (mem_hook_ != nullptr) {
      mem_hook_(mem_ctx_, -static_cast<long>(tracked_bytes()));
    }
    mem_hook_ = hook;
    mem_ctx_ = ctx;
    if (mem_hook_ != nullptr) {
      mem_hook_(mem_ctx_, static_cast<long>(tracked_bytes()));
    }
  }

 private:
  friend class EventHandle;

  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;         // 64
  static constexpr int kLevels =                                 // spans 2^63 ns
      (63 - kTickBits + kLevelBits - 1) / kLevelBits;
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kChunkSize = 1024;                     // nodes per slab chunk
  // head_when_ values below 0: the due-run head is unknown, resolve it first
  // (the last two say why, for the counters).
  static constexpr SimTime kNoHead = -1;
  static constexpr SimTime kHeadCancelled = -2;  // a Cancel hit the cached head
  static constexpr SimTime kPeekCancelled = -3;  // RunNext's peek found it cancelled
  static_assert(kTickBits >= 10 && kTickBits <= 16, "keep ticks in the µs range");

  enum class NodeState : uint8_t { kFree, kInSlot, kInDue };

  // Hot routing metadata only — exactly 32 bytes, two per cache line. The
  // callback lives in a parallel array (cb_chunks_): cascades re-route nodes
  // but only Schedule and RunNext ever touch the callback, so keeping it out
  // of Node shrinks the cascade working set ~4.5x.
  struct Node {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t gen = 0;         // bumped every time the node is freed
    uint32_t next = kNil;     // slot chain link; doubles as the free-list link
    NodeState state = NodeState::kFree;
    bool cancelled = false;   // lazily reaped when the slot is next visited
  };
  static_assert(sizeof(Node) == 32, "keep the hot node at half a cache line");

  static uint64_t Tick(SimTime when) { return static_cast<uint64_t>(when) >> kTickBits; }

  Node& node(uint32_t idx) { return chunks_[idx / kChunkSize][idx % kChunkSize]; }
  const Node& node(uint32_t idx) const { return chunks_[idx / kChunkSize][idx % kChunkSize]; }
  EventCallback& cb(uint32_t idx) { return cb_chunks_[idx / kChunkSize][idx % kChunkSize]; }

  uint32_t AllocNode();
  void FreeNode(uint32_t idx);  // destroys the callback, bumps the generation

  // Place a node into the wheel according to its tick and current_tick_.
  void Route(uint32_t idx);
  void PushSlot(int level, int index, uint32_t idx);

  // Detach a whole slot list (returns the head; bitmap bit cleared).
  uint32_t DetachSlot(int level, int index);

  // Find the occupied slot with the smallest lower-bound tick. Returns false
  // when the wheel is empty. Ties prefer higher levels so far slots cascade
  // before a same-tick level-0 slot drains (required for seq ordering).
  bool FindNextSlot(int* level, int* index, uint64_t* lower_bound);

  // Move every node of slot (level, index) down the wheel after advancing
  // current_tick_ to the slot's lower bound.
  void Cascade(int level, int index);

  // Drain the level-0 slot of current_tick_ into the due run, sorted by
  // (when, seq).
  void CollectDue();

  // Insert a node of tick <= current_tick_ into the due run, in order.
  void InsertDue(uint32_t idx);

  // NextTime()'s slow path: reap a cancelled due-run head, or drain the next
  // slot once the run is exhausted. Sets head_when_ unless the queue is empty.
  SimTime Resolve();

  void CancelAt(uint32_t idx, uint32_t gen);
  bool PendingAt(uint32_t idx, uint32_t gen) const;

  // --- storage -----------------------------------------------------------------
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::unique_ptr<EventCallback[]>> cb_chunks_;  // parallel to chunks_
  uint32_t free_head_ = kNil;

  uint32_t slot_head_[kLevels * kSlotsPerLevel];
  uint64_t occupied_[kLevels] = {};

  // The due run: node indices of the events at or before current_tick_,
  // sorted by (when, seq), consumed from due_pos_ by RunNext. Kept to 4-byte
  // entries so an in-order insert into a long run shifts little. Persistent
  // capacity. Invariant: outside Resolve every wheel node's tick is later
  // than current_tick_.
  std::vector<uint32_t> due_;
  size_t due_pos_ = 0;
  SimTime head_when_ = kNoHead;  // when of the live due-run head, if >= 0

  uint64_t current_tick_ = 0;  // wheel origin; never moves back
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  uint64_t executed_count_ = 0;
  MemHook mem_hook_ = nullptr;
  void* mem_ctx_ = nullptr;
  Observer observer_ = nullptr;
  void* observer_ctx_ = nullptr;
  Counters counters_;
};

}  // namespace scio

#endif  // SRC_SIM_EVENT_QUEUE_H_
