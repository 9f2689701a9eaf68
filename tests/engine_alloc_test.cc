// Heap traffic of the event engine, counted by the replacement operator new
// in bench/counting_new.cc. Once warmed up, scheduling, firing and
// cancelling events, and sending frames over a Link with a delivery callback
// that fits EventCallback's inline buffer, must not touch the heap: the node
// pool and the due run keep their capacity, and small captures live inline.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/counting_new.h"
#include "src/net/link.h"
#include "src/sim/event_callback.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace scio {
namespace {

// Exactly EventCallback's inline capacity, like the socket-delivery lambdas.
struct InlineDelivery {
  uint64_t* sink;
  unsigned char payload[EventCallback::kInlineCapacity - sizeof(uint64_t*)];
  void operator()() const { *sink += payload[0]; }
};
static_assert(sizeof(InlineDelivery) == EventCallback::kInlineCapacity);

// One byte too many for the inline buffer: stored in one heap cell.
struct OversizedDelivery {
  uint64_t* sink;
  unsigned char payload[EventCallback::kInlineCapacity];
  void operator()() const { *sink += payload[0]; }
};

// Schedules 2048 events from `base` over every delay class the simulator
// uses (same tick, level 0, level 1, level 2, one far event), cancels a third
// of them — some after NextTime() has formed the due run — and fires the
// rest. Returns events fired.
uint64_t EngineRound(EventQueue* queue, std::vector<EventHandle>* handles, SimTime base,
                     uint64_t* sink) {
  static constexpr SimTime kDelays[] = {100, 3'000, 150'000, 200'000, 2'000'000,
                                        400'000'000, 5'000'000'000};
  for (size_t i = 0; i < handles->size(); ++i) {
    const SimTime when = base + kDelays[i % 7] + static_cast<SimTime>(i);
    (*handles)[i] = queue->Schedule(when, InlineDelivery{sink, {1}});
  }
  queue->NextTime();
  for (size_t i = 0; i < handles->size(); i += 3) {
    (*handles)[i].Cancel();
  }
  uint64_t fired = 0;
  while (queue->RunNext()) {
    ++fired;
  }
  return fired;
}

TEST(EngineAllocTest, WarmQueueSchedulesFiresAndCancelsWithoutAllocating) {
  EventQueue queue;
  std::vector<EventHandle> handles(2048);
  uint64_t sink = 0;
  for (int warm = 0; warm < 3; ++warm) {
    EngineRound(&queue, &handles, SimTime{10'000'000'000} * warm, &sink);
  }
  const uint64_t before = HeapAllocCount();
  const uint64_t fired = EngineRound(&queue, &handles, SimTime{40'000'000'000}, &sink);
  const uint64_t allocs = HeapAllocCount() - before;
  EXPECT_EQ(fired, 2048u - 683u);
  EXPECT_EQ(allocs, 0u) << "a warm engine allocated while scheduling, cancelling or firing";
}

TEST(EngineAllocTest, WarmLinkTransmitsInlineCallbacksWithoutAllocating) {
  Simulator sim;
  Link link(&sim, 100e6, Micros(100));
  uint64_t sink = 0;
  auto burst = [&] {
    for (int i = 0; i < 1000; ++i) {
      link.Transmit(1500, InlineDelivery{&sink, {1}});
    }
    sim.RunAll();
  };
  burst();
  burst();
  const uint64_t before = HeapAllocCount();
  burst();
  const uint64_t allocs = HeapAllocCount() - before;
  EXPECT_EQ(sink, 3000u);
  EXPECT_EQ(allocs, 0u) << "Link::Transmit allocated for an inline-sized callback";
}

// The counter is live: a callback one byte over the inline buffer costs one
// allocation per transmit, so the zeros above are not a dead counter.
TEST(EngineAllocTest, OversizedCallbackIsCounted) {
  Simulator sim;
  Link link(&sim, 100e6, Micros(100));
  uint64_t sink = 0;
  link.Transmit(1500, OversizedDelivery{&sink, {1}});
  sim.RunAll();
  const uint64_t before = HeapAllocCount();
  for (int i = 0; i < 10; ++i) {
    link.Transmit(1500, OversizedDelivery{&sink, {1}});
  }
  sim.RunAll();
  const uint64_t allocs = HeapAllocCount() - before;
  EXPECT_EQ(sink, 11u);
  EXPECT_EQ(allocs, 10u);
}

}  // namespace
}  // namespace scio
