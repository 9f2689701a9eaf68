// Tests for the discrete-event simulation engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace scio {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(30, [&] { order.push_back(3); });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(20, [&] { order.push_back(2); });
  while (queue.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeRunsInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (queue.RunNext()) {
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  EventHandle handle = queue.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  while (queue.RunNext()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue queue;
  int runs = 0;
  EventHandle handle = queue.Schedule(10, [&] { ++runs; });
  queue.RunNext();
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueTest, EmptyHandleCancelIsSafe) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  EventHandle a = queue.Schedule(1, [] {});
  queue.Schedule(2, [] {});
  EXPECT_EQ(queue.size(), 2u);
  a.Cancel();
  EXPECT_EQ(queue.NextTime(), 2);  // skips the cancelled head
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue queue;
  int runs = 0;
  queue.Schedule(1, [&] {
    ++runs;
    queue.Schedule(2, [&] { ++runs; });
  });
  while (queue.RunNext()) {
  }
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueTest, SameTimeFifoAcrossWheelLevels) {
  // The far event lands on a high wheel level at schedule time; the near one
  // is scheduled for the same time from 1 ns before it. The far event carries
  // the lower sequence number, so it must still fire first after cascading
  // down. The first four targets were levels 1-4 of the old nanosecond
  // wheel; each now shares a tick with its 1 ns predecessor, so the late
  // schedule is inserted into the far event's due run. Then one target
  // 3·64^l ticks out for every level l of the current wheel, the top one
  // included, whose predecessor sits in the tick before.
  std::vector<SimTime> targets = {70, 5000, 300'000, 20'000'000};
  for (int shift = EventQueue::kTickBits; shift < 63; shift += 6) {
    targets.push_back(SimTime{3} << shift);
  }
  for (const SimTime target : targets) {
    EventQueue queue;
    std::vector<int> order;
    queue.Schedule(target, [&] { order.push_back(1); });
    queue.Schedule(target - 1, [&] {
      queue.Schedule(target, [&] { order.push_back(2); });
    });
    while (queue.RunNext()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "target " << target;
  }
}

TEST(EventQueueTest, DoubleCancelKeepsSizeConsistent) {
  EventQueue queue;
  EventHandle handle = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  handle.Cancel();
  handle.Cancel();  // must not decrement the live count a second time
  EXPECT_EQ(queue.size(), 1u);
  size_t runs = 0;
  while (queue.RunNext()) {
    ++runs;
  }
  EXPECT_EQ(runs, 1u);
}

TEST(EventQueueTest, CallbackMayCancelSameTickEvent) {
  EventQueue queue;
  bool second_ran = false;
  EventHandle second;
  queue.Schedule(5, [&] { second.Cancel(); });
  second = queue.Schedule(5, [&] { second_ran = true; });
  while (queue.RunNext()) {
  }
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, RecycledNodeDoesNotHonorStaleHandle) {
  EventQueue queue;
  EventHandle stale = queue.Schedule(1, [] {});
  queue.RunNext();  // fires; the node returns to the pool
  bool ran = false;
  EventHandle fresh = queue.Schedule(2, [&] { ran = true; });
  EXPECT_FALSE(stale.pending());
  stale.Cancel();  // generation mismatch: must not touch the new occupant
  EXPECT_TRUE(fresh.pending());
  queue.RunNext();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, ClearDestroysPendingCallbacks) {
  EventQueue queue;
  auto token = std::make_shared<int>(42);
  queue.Schedule(1000, [token] {});
  queue.Schedule(200'000, [token] {});  // far slot: exercises the wheel sweep
  EXPECT_EQ(token.use_count(), 3);
  queue.Clear();
  EXPECT_EQ(token.use_count(), 1) << "Clear() must release captured state";
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.RunNext());
}

TEST(EventQueueTest, CancelledCallbackReleasedByDrain) {
  EventQueue queue;
  auto token = std::make_shared<int>(0);
  EventHandle handle = queue.Schedule(50, [token] {});
  queue.Schedule(60, [] {});
  handle.Cancel();
  while (queue.RunNext()) {
  }
  EXPECT_EQ(token.use_count(), 1) << "lazily-reaped node still held the callback";
}

TEST(EventQueueTest, EarlierScheduleAfterNextTimeResolves) {
  // NextTime() advances the wheel origin to the earliest pending tick; a
  // Schedule for an earlier time afterwards must still fire first.
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(100, [&] { order.push_back(100); });
  queue.Schedule(100, [&] { order.push_back(101); });
  EXPECT_EQ(queue.NextTime(), 100);
  queue.Schedule(50, [&] { order.push_back(50); });
  EXPECT_EQ(queue.NextTime(), 50);
  while (queue.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{50, 100, 101}));
}

TEST(EventQueueTest, MatchesReferenceModelUnderSeededChurn) {
  // Differential test: the wheel must fire exactly the (time, seq)-minimum
  // live event, matching an ordered-map reference model, through a seeded
  // mix of schedules, cancellations, and fires. Two passes over one queue so
  // the second exercises node-pool reuse end to end.
  EventQueue queue;
  Rng rng(20260805);
  for (int pass = 0; pass < 2; ++pass) {
    std::map<std::pair<SimTime, uint64_t>, uint64_t> model;  // (when, seq) -> id
    std::vector<std::pair<EventHandle, std::pair<SimTime, uint64_t>>> handles;
    std::vector<uint64_t> fired;
    uint64_t next_id = 0;
    uint64_t next_seq = 0;
    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        const SimTime when = rng.UniformInt(0, 1'000'000);
        const uint64_t id = next_id++;
        const uint64_t seq = next_seq++;
        EventHandle handle =
            queue.Schedule(when, [&fired, id] { fired.push_back(id); });
        model.emplace(std::make_pair(when, seq), id);
        handles.emplace_back(handle, std::make_pair(when, seq));
      } else if (roll < 0.65 && !handles.empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1));
        handles[pick].first.Cancel();       // no-op if already fired/cancelled
        model.erase(handles[pick].second);  // ditto
      } else if (!model.empty()) {
        const uint64_t expected = model.begin()->second;
        const size_t before = fired.size();
        ASSERT_TRUE(queue.RunNext());
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected) << "wrong event fired at step " << step;
        model.erase(model.begin());
      }
      ASSERT_EQ(queue.size(), model.size()) << "live-count drift at step " << step;
    }
    while (!model.empty()) {
      const uint64_t expected = model.begin()->second;
      ASSERT_TRUE(queue.RunNext());
      ASSERT_EQ(fired.back(), expected);
      model.erase(model.begin());
    }
    EXPECT_FALSE(queue.RunNext());
    EXPECT_TRUE(queue.empty());
  }
}

// Differential test under the wheel's own geometry: a seeded mix of
// schedules clustered inside one tick and spread over every level, follow-up
// schedules made from inside a firing callback into the current due run
// (before and after the firing event's time), cancels of due-run entries,
// schedules for an earlier tick than an already-resolved NextTime (they
// join the due run ahead of the wheel origin), random cancels and fires. The
// queue must fire exactly the (time, seq)-minimum live event of an
// ordered-map model, and NextTime() must report its time.
class WheelModelHarness {
 public:
  explicit WheelModelHarness(uint64_t seed) : rng_(seed) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const double roll = rng_.NextDouble();
      if (roll < 0.25) {
        ScheduleClustered();
      } else if (roll < 0.37) {
        ScheduleSpread();
      } else if (roll < 0.45) {
        ScheduleBeforeResolvedTick();
      } else if (roll < 0.53) {
        CancelDueRunEntry();
      } else if (roll < 0.60) {
        CancelAny();
      } else {
        Fire();
      }
      ASSERT_EQ(queue_.size(), model_.size()) << "live-count drift at step " << step;
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    while (!model_.empty()) {
      Fire();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_FALSE(queue_.RunNext());
    EXPECT_TRUE(queue_.empty());
  }

  uint64_t fires() const { return fires_; }
  uint64_t chained() const { return chained_; }
  uint64_t due_cancels() const { return due_cancels_; }
  uint64_t earlier_ticks() const { return earlier_ticks_; }

 private:
  using Key = std::pair<SimTime, uint64_t>;  // (when, seq)
  static constexpr SimTime kTick = EventQueue::kTickNs;
  static constexpr SimTime kHorizon = SimTime{1} << 61;

  static SimTime TickStart(SimTime t) { return t - t % kTick; }

  void Schedule(SimTime when) {
    when = std::min(when, kHorizon);
    const uint64_t id = next_id_++;
    const Key key{when, next_seq_++};
    const bool chains = rng_.Bernoulli(0.3);
    EventHandle handle = queue_.Schedule(when, [this, id, key, chains] {
      fired_ = id;
      if (chains) {
        // Into the current due run: anywhere in this event's own tick, even
        // before the event that is firing now.
        ++chained_;
        Schedule(TickStart(key.first) + rng_.UniformInt(0, kTick - 1));
      }
    });
    model_.emplace(key, id);
    handles_.emplace_back(handle, key);
  }

  // A time in the tick of the last fired event or one of the next two.
  void ScheduleClustered() {
    Schedule(TickStart(last_fired_) + rng_.UniformInt(0, 3 * kTick - 1));
  }

  // 2^b ns past the last fire for b in [0, 60]: every level of the wheel.
  void ScheduleSpread() {
    const int bits = static_cast<int>(rng_.UniformInt(0, 60));
    Schedule(last_fired_ + (SimTime{1} << bits) + rng_.UniformInt(0, kTick));
  }

  // Resolve NextTime, then schedule into an earlier tick than the one it
  // resolved, behind the wheel origin.
  void ScheduleBeforeResolvedTick() {
    const SimTime next = queue_.NextTime();
    if (next == kSimTimeNever || next < kTick) {
      return;
    }
    const SimTime before = TickStart(next) - rng_.UniformInt(1, 3 * kTick);
    ++earlier_ticks_;
    Schedule(std::max<SimTime>(0, before));
  }

  // Resolve NextTime (which forms the due run) and cancel an event in its
  // tick, the head included.
  void CancelDueRunEntry() {
    const SimTime next = queue_.NextTime();
    if (next == kSimTimeNever) {
      return;
    }
    std::vector<Key> run;
    for (auto it = model_.begin(); it != model_.end() && TickStart(it->first.first) ==
                                                              TickStart(next);
         ++it) {
      run.push_back(it->first);
    }
    ASSERT_FALSE(run.empty());
    const Key victim = run[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(run.size()) - 1))];
    for (auto& [handle, key] : handles_) {
      if (key == victim) {
        handle.Cancel();
      }
    }
    model_.erase(victim);
    ++due_cancels_;
  }

  void CancelAny() {
    if (handles_.empty()) {
      return;
    }
    const size_t pick = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(handles_.size()) - 1));
    handles_[pick].first.Cancel();       // no-op if already fired/cancelled
    model_.erase(handles_[pick].second);  // ditto
  }

  void Fire() {
    if (model_.empty()) {
      EXPECT_EQ(queue_.NextTime(), kSimTimeNever);
      return;
    }
    const auto [key, expected] = *model_.begin();
    ASSERT_EQ(queue_.NextTime(), key.first) << "fire " << fires_;
    model_.erase(model_.begin());  // before the callback adds its follow-up
    fired_ = UINT64_MAX;
    ASSERT_TRUE(queue_.RunNext());
    ASSERT_EQ(fired_, expected) << "wrong event fired at fire " << fires_;
    last_fired_ = key.first;
    ++fires_;
  }

  EventQueue queue_;
  Rng rng_;
  std::map<Key, uint64_t> model_;
  std::vector<std::pair<EventHandle, Key>> handles_;
  uint64_t next_id_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = UINT64_MAX;
  SimTime last_fired_ = 0;
  uint64_t fires_ = 0;
  uint64_t chained_ = 0;
  uint64_t due_cancels_ = 0;
  uint64_t earlier_ticks_ = 0;
};

TEST(EventQueueTest, MatchesReferenceModelAcrossTickGeometry) {
  for (const uint64_t seed : {1ull, 42ull, 20261019ull}) {
    SCOPED_TRACE(seed);
    WheelModelHarness harness(seed);
    harness.Run(20000);
    if (HasFatalFailure()) {
      return;
    }
    // Every path the test is named for actually ran.
    EXPECT_GT(harness.fires(), 5000u);
    EXPECT_GT(harness.chained(), 1000u);
    EXPECT_GT(harness.due_cancels(), 500u);
    EXPECT_GT(harness.earlier_ticks(), 500u);
  }
}

TEST(EventQueueTest, ObserverSeesEveryOpInCallOrder) {
  using Op = EventQueue::Op;
  struct Seen {
    Op op;
    SimTime when;
    uint64_t seq;
    bool operator==(const Seen&) const = default;
  };
  std::vector<Seen> seen;
  EventQueue queue;
  queue.set_observer(
      [](void* ctx, Op op, SimTime when, uint64_t seq) {
        static_cast<std::vector<Seen>*>(ctx)->push_back({op, when, seq});
      },
      &seen);
  EventHandle first = queue.Schedule(10, [] {});
  queue.Schedule(20'000, [] {});
  first.Cancel();
  first.Cancel();  // no effect, so not observed
  EXPECT_EQ(queue.NextTime(), 20'000);
  EXPECT_TRUE(queue.RunNext());
  EXPECT_FALSE(queue.RunNext());
  EXPECT_EQ(seen, (std::vector<Seen>{{Op::kSchedule, 10, 0},
                                     {Op::kSchedule, 20'000, 1},
                                     {Op::kCancel, 10, 0},
                                     {Op::kNextTime, 0, 0},
                                     {Op::kRunNext, 20'000, 1}}));
}

TEST(EventQueueTest, CountersTrackWheelWork) {
  EventQueue queue;
  queue.Schedule(100, [] {});                            // the origin's tick: due run
  queue.Schedule(EventQueue::kTickNs * 10, [] {});       // level 0: one route
  queue.Schedule(EventQueue::kTickNs * 64 * 10, [] {});  // level 1, then level 0
  while (queue.RunNext()) {
  }
  EXPECT_EQ(queue.counters().routes, 3u);
  // One search finds the level-0 event; one finds the level-1 slot, whose
  // cascade leaves the event alone in level 0 for a third.
  EXPECT_EQ(queue.counters().slot_searches, 3u);
}

TEST(EventQueueTest, CountersTrackCancelledDueRunHeads) {
  EventQueue queue;
  // All three lie in the origin's tick, so they join one due run.
  EventHandle first = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  EventHandle third = queue.Schedule(30, [] {});
  EXPECT_EQ(queue.NextTime(), 10);
  first.Cancel();  // the head whose time NextTime() cached
  EXPECT_EQ(queue.NextTime(), 20);
  EXPECT_EQ(queue.NextTime(), 20);
  EXPECT_EQ(queue.counters().head_cancel_resolves, 1u) << "resolved once, by the next probe";
  third.Cancel();  // behind the head: the cached time still holds
  EXPECT_TRUE(queue.RunNext());  // fires 20, and its peek finds 30 cancelled
  EXPECT_EQ(queue.NextTime(), kSimTimeNever);
  EXPECT_EQ(queue.NextTime(), kSimTimeNever);
  EXPECT_EQ(queue.counters().head_cancel_resolves, 1u);
  EXPECT_EQ(queue.counters().cancelled_peek_resolves, 1u);
}

TEST(SimulatorTest, AdvanceToRunsDueEventsAndSetsClock) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleAt(10, [&] { seen.push_back(sim.now()); });
  sim.ScheduleAt(20, [&] { seen.push_back(sim.now()); });
  sim.ScheduleAt(50, [&] { seen.push_back(sim.now()); });
  sim.AdvanceTo(30);
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  sim.RunAll();
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, StepUntilStopsOnPredicate) {
  Simulator sim;
  bool flag = false;
  sim.ScheduleAt(10, [&] { flag = true; });
  sim.ScheduleAt(20, [&] { FAIL() << "should not run"; });
  EXPECT_TRUE(sim.StepUntil([&] { return flag; }, 100));
  EXPECT_EQ(sim.now(), 10);
}

TEST(SimulatorTest, StepUntilDeadlineAdvancesClock) {
  Simulator sim;
  EXPECT_FALSE(sim.StepUntil([] { return false; }, 42));
  EXPECT_EQ(sim.now(), 42);
}

TEST(SimulatorTest, StepUntilImmediateWhenAlreadyTrue) {
  Simulator sim;
  EXPECT_TRUE(sim.StepUntil([] { return true; }, 42));
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, ScheduleAfterClampsNegativeDelay) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(-5, [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, RunAllHonorsLimit) {
  Simulator sim;
  int runs = 0;
  // Self-perpetuating event chain.
  std::function<void()> chain = [&] {
    ++runs;
    sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAfter(1, chain);
  EXPECT_EQ(sim.RunAll(100), 100u);
  EXPECT_EQ(runs, 100);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(7);
  Rng fork = a.Fork();
  EXPECT_NE(a.NextU64(), fork.NextU64());
}

class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, UniformIntStaysInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 17);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 17);
  }
}

TEST_P(RngSeedTest, NextDoubleInHalfOpenUnit) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST_P(RngSeedTest, ExponentialMeanConverges) {
  Rng rng(GetParam());
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST_P(RngSeedTest, BoundedParetoStaysBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.BoundedPareto(1.2, 100.0, 1e6);
    EXPECT_GE(v, 100.0 * 0.999);
    EXPECT_LE(v, 1e6 * 1.001);
  }
}

TEST_P(RngSeedTest, BernoulliExtremes) {
  Rng rng(GetParam());
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(1ull, 42ull, 0xdeadbeefull, 977ull, 31337ull));

}  // namespace
}  // namespace scio
