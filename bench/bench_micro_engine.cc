// MICRO-3: event-engine microbenchmarks — the pooled timer-wheel scheduler
// versus the priority-queue-of-allocations engine it replaced.
//
// Two modes:
//
//   ./bench_micro_engine [out.json]   (default; used by CI)
//       Runs a fixed, deterministic set of timed workloads — schedule/fire
//       steady state and schedule/cancel/fire churn for both engines, a
//       quick end-to-end figure sweep, and replay_fig15, the recorded engine
//       op stream of one fig15 leg — and writes BENCH_engine.json (schema:
//       bench name -> {wall_ms, events_scheduled, allocs}, plus
//       routes_per_schedule and slot_searches_per_fire on the replay row) so
//       future changes can track the perf trajectory. Exits 1 if the
//       engine is out of (when, seq) order: the recorded leg's fires or the
//       wheel's NextTime() answers against the same stream replayed into the
//       heap baseline, or the wheel's replay against the recording. Timings
//       never fail it.
//
//   ./bench_micro_engine --gbench [gbench flags...]
//       Runs the google-benchmark suite: schedule/cancel/fire mixes at
//       1e3..1e6 pending events, with and without cancellation churn.
//
// The legacy engine is reproduced locally (a std::priority_queue of entries
// carrying a std::function plus a shared_ptr cancellation block — exactly
// the allocation behaviour src/sim had before the wheel) so the comparison
// stays honest as the real engine evolves.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench/counting_new.h"
#include "src/load/benchmark_run.h"
#include "src/sim/event_queue.h"
#include "src/trace/flight_recorder.h"

namespace {

using scio::SimTime;

// --- the legacy engine, reproduced as the baseline ---------------------------

class HeapQueue {
 public:
  struct State {
    bool cancelled = false;
  };

  std::shared_ptr<State> Schedule(SimTime when, std::function<void()> cb) {
    auto state = std::make_shared<State>();
    queue_.push(Entry{when, next_seq_++, std::move(cb), state});
    return state;
  }

  bool RunNext() {
    SkipCancelled();
    if (queue_.empty()) {
      return false;
    }
    Entry entry = queue_.top();
    queue_.pop();
    entry.cb();
    return true;
  }

  bool empty() {
    SkipCancelled();
    return queue_.empty();
  }

  SimTime NextTime() {
    SkipCancelled();
    return queue_.empty() ? scio::kSimTimeNever : queue_.top().when;
  }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    std::function<void()> cb;
    std::shared_ptr<State> state;
    bool operator>(const Entry& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  void SkipCancelled() {
    while (!queue_.empty() && queue_.top().state->cancelled) {
      queue_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  uint64_t next_seq_ = 0;
};

// --- deterministic workloads -------------------------------------------------

uint64_t XorShift(uint64_t* s) {
  uint64_t x = *s;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *s = x;
}

// A callback shaped like the real hot path: captures a pointer and an index.
struct Payload {
  uint64_t* sink;
  uint64_t value;
  void operator()() const { *sink += value; }
};

// Steady state: keep `pending` events in flight; each op schedules a
// replacement a pseudo-random offset ahead, then fires the earliest. The
// clock follows the queue (now = next event time), exactly as the
// Simulator's StepUntil drives it. Returns events scheduled.
template <typename ScheduleFn, typename NextFn, typename FireFn>
uint64_t SteadyMix(size_t pending, uint64_t ops, uint64_t* sink,
                   ScheduleFn schedule, NextFn next, FireFn fire) {
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  uint64_t scheduled = 0;
  for (size_t i = 0; i < pending; ++i) {
    schedule(static_cast<SimTime>(XorShift(&rng) % 1'000'000),
             Payload{sink, ++scheduled});
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const SimTime now = next();
    schedule(now + static_cast<SimTime>(XorShift(&rng) % 1'000'000),
             Payload{sink, ++scheduled});
    fire();
  }
  return scheduled;
}

// Churn: schedule two, cancel one, fire one — cancellation-heavy traffic like
// client timeout timers that almost never expire.
template <typename ScheduleFn, typename NextFn, typename CancelFn, typename FireFn>
uint64_t ChurnMix(size_t pending, uint64_t ops, uint64_t* sink,
                  ScheduleFn schedule, NextFn next, CancelFn cancel, FireFn fire) {
  uint64_t rng = 0x2545f4914f6cdd1dULL;
  uint64_t scheduled = 0;
  for (size_t i = 0; i < pending; ++i) {
    schedule(static_cast<SimTime>(XorShift(&rng) % 1'000'000),
             Payload{sink, ++scheduled});
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const SimTime now = next();
    schedule(now + static_cast<SimTime>(XorShift(&rng) % 1'000'000),
             Payload{sink, ++scheduled});
    auto doomed = schedule(now + static_cast<SimTime>(XorShift(&rng) % 500'000),
                           Payload{sink, ++scheduled});
    cancel(doomed);
    fire();
  }
  return scheduled;
}

uint64_t RunWheelSteady(size_t pending, uint64_t ops, uint64_t* sink) {
  scio::EventQueue q;
  return SteadyMix(
      pending, ops, sink,
      [&](SimTime when, Payload p) { return q.Schedule(when, p); },
      [&] { return q.NextTime(); }, [&] { q.RunNext(); });
}

uint64_t RunHeapSteady(size_t pending, uint64_t ops, uint64_t* sink) {
  HeapQueue q;
  return SteadyMix(
      pending, ops, sink,
      [&](SimTime when, Payload p) { return q.Schedule(when, p); },
      [&] { return q.NextTime(); }, [&] { q.RunNext(); });
}

uint64_t RunWheelChurn(size_t pending, uint64_t ops, uint64_t* sink) {
  scio::EventQueue q;
  return ChurnMix(
      pending, ops, sink,
      [&](SimTime when, Payload p) { return q.Schedule(when, p); },
      [&] { return q.NextTime(); },
      [](scio::EventHandle h) { h.Cancel(); }, [&] { q.RunNext(); });
}

uint64_t RunHeapChurn(size_t pending, uint64_t ops, uint64_t* sink) {
  HeapQueue q;
  return ChurnMix(
      pending, ops, sink,
      [&](SimTime when, Payload p) { return q.Schedule(when, p); },
      [&] { return q.NextTime(); },
      [](const std::shared_ptr<HeapQueue::State>& s) { s->cancelled = true; },
      [&] { q.RunNext(); });
}

// --- fig15 replay ---------------------------------------------------------------
//
// The engine op stream of one real fig15 leg, recorded through the flight
// recorder's engine tap and replayed op by op against a fresh queue: the same
// schedule times in the same order (so the same sequence numbers), the same
// cancels, NextTime() probes and fires. Each replayed event stamps its
// schedule index when it fires. The wheel replays the recording by
// construction, so on its own that only checks the replay is faithful; the
// order check is the same stream replayed into HeapQueue, whose fires are
// the (when, seq) order the recorded run had to follow and whose NextTime()
// answers are what the wheel's must be.

class EngineOpLog {
 public:
  using Op = scio::EventQueue::Op;

  static void Observe(void* ctx, Op op, SimTime when, uint64_t seq) {
    static_cast<EngineOpLog*>(ctx)->Append(op, when, seq);
  }

  // Runs `config` with the tap attached. False if the stream cannot be
  // replayed: some schedule did not carry the next sequence number.
  bool Record(scio::BenchmarkRunConfig config) {
    scio::FlightRecorder recorder(1);
    recorder.set_engine_observer(&EngineOpLog::Observe, this);
    config.recorder = &recorder;
    scio::RunBenchmark(config);
    return consistent_;
  }

  size_t schedules() const { return when_.size(); }
  size_t fires() const { return fired_.size(); }
  bool FiredInRecordedOrder(const std::vector<uint32_t>& fired) const {
    return fired == fired_;
  }

  // Replays the stream into `queue` (an EventQueue or the HeapQueue
  // baseline); fired[i] becomes the schedule index of the i-th event fired,
  // and, if `probes` is given, every NextTime() answer is appended to it.
  // `handles` must hold schedules() entries. Returns events scheduled.
  template <typename Queue, typename Handle>
  uint64_t Replay(Queue* queue, std::vector<Handle>* handles, std::vector<uint32_t>* fired,
                  std::vector<SimTime>* probes = nullptr) const {
    size_t next_schedule = 0;
    size_t next_cancel = 0;
    uint64_t sink = 0;  // unsigned: an empty queue answers kSimTimeNever
    for (const Op op : ops_) {
      switch (op) {
        case Op::kSchedule:
          (*handles)[next_schedule] =
              queue->Schedule(when_[next_schedule],
                              Stamp{fired, static_cast<uint32_t>(next_schedule)});
          ++next_schedule;
          break;
        case Op::kCancel:
          Cancel((*handles)[cancels_[next_cancel++]]);
          break;
        case Op::kNextTime: {
          const SimTime next = queue->NextTime();
          sink += static_cast<uint64_t>(next);
          if (probes != nullptr) {
            probes->push_back(next);
          }
          break;
        }
        case Op::kRunNext:
          queue->RunNext();
          break;
      }
    }
    benchmark::DoNotOptimize(sink);
    return next_schedule;
  }

 private:
  struct Stamp {
    std::vector<uint32_t>* fired;
    uint32_t index;
    void operator()() const { fired->push_back(index); }
  };

  static void Cancel(scio::EventHandle& handle) { handle.Cancel(); }
  static void Cancel(const std::shared_ptr<HeapQueue::State>& state) {
    state->cancelled = true;
  }

  void Append(Op op, SimTime when, uint64_t seq) {
    ops_.push_back(op);
    switch (op) {
      case Op::kSchedule:
        consistent_ = consistent_ && seq == when_.size();
        when_.push_back(when);
        break;
      case Op::kCancel:
        cancels_.push_back(static_cast<uint32_t>(seq));
        break;
      case Op::kNextTime:
        break;
      case Op::kRunNext:
        fired_.push_back(static_cast<uint32_t>(seq));
        break;
    }
  }

  std::vector<Op> ops_;
  std::vector<SimTime> when_;      // one per schedule; the index is its seq
  std::vector<uint32_t> cancels_;  // seq of each cancel that took effect
  std::vector<uint32_t> fired_;    // seq of each fired event
  bool consistent_ = true;
};

// One fig15 load-501 leg: thttpd on /dev/poll at 900 req/s, with
// bench_fig15_successors' seeds and its 10 s generation window.
scio::BenchmarkRunConfig Fig15Leg() {
  scio::BenchmarkRunConfig config;
  config.server = scio::ServerKind::kThttpdDevPoll;
  config.active.request_rate = 900;
  config.active.duration = scio::Seconds(10);
  config.active.seed = 42 + 900;
  config.inactive.connections = 501;
  config.inactive.seed = 42 * 31 + 900;
  config.sample_width = scio::Seconds(1);
  return config;
}

// --- google-benchmark suite --------------------------------------------------

void BM_WheelScheduleFire(benchmark::State& state) {
  const auto pending = static_cast<size_t>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWheelSteady(pending, pending, &sink));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pending) * 2);
}
BENCHMARK(BM_WheelScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_HeapScheduleFire(benchmark::State& state) {
  const auto pending = static_cast<size_t>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHeapSteady(pending, pending, &sink));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pending) * 2);
}
BENCHMARK(BM_HeapScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_WheelChurn(benchmark::State& state) {
  const auto pending = static_cast<size_t>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWheelChurn(pending, pending, &sink));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pending) * 2);
}
BENCHMARK(BM_WheelChurn)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_HeapChurn(benchmark::State& state) {
  const auto pending = static_cast<size_t>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHeapChurn(pending, pending, &sink));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pending) * 2);
}
BENCHMARK(BM_HeapChurn)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// --- JSON perf-trajectory mode -----------------------------------------------

struct TimedResult {
  std::string name;
  double wall_ms = 0;
  uint64_t events_scheduled = 0;
  uint64_t allocs = 0;
  // Wheel work per event; replay rows only (negative: not reported).
  double routes_per_schedule = -1;
  double slot_searches_per_fire = -1;
};

template <typename Fn>
TimedResult Timed(const std::string& name, Fn fn) {
  TimedResult r;
  r.name = name;
  const uint64_t allocs_before = scio::HeapAllocCount();
  const auto start = std::chrono::steady_clock::now();
  r.events_scheduled = fn();
  const auto end = std::chrono::steady_clock::now();
  r.allocs = scio::HeapAllocCount() - allocs_before;
  r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return r;
}

uint64_t RunQuickFigureSweep() {
  // A miniature fig04-shaped run: enough simulated traffic to exercise the
  // whole stack, small enough to keep the CI timing step fast.
  scio::BenchmarkRunConfig config;
  config.server = scio::ServerKind::kThttpdPoll;
  config.active.request_rate = 700.0;
  config.active.duration = scio::Seconds(4);
  config.inactive.connections = 64;
  uint64_t events = 0;
  const scio::BenchmarkResult result = scio::RunBenchmark(config);
  events += result.attempts + result.successes;
  return events;
}

int JsonMain(const char* out_path) {
  constexpr size_t kPending = 1 << 17;  // ~131k pending events
  constexpr uint64_t kOps = 1 << 21;    // ~2.1M schedule/fire pairs
  uint64_t sink = 0;

  std::vector<TimedResult> results;
  results.push_back(Timed("wheel_schedule_fire",
                          [&] { return RunWheelSteady(kPending, kOps, &sink); }));
  results.push_back(Timed("heap_schedule_fire",
                          [&] { return RunHeapSteady(kPending, kOps, &sink); }));
  results.push_back(Timed("wheel_churn_cancel",
                          [&] { return RunWheelChurn(kPending, kOps / 2, &sink); }));
  results.push_back(Timed("heap_churn_cancel",
                          [&] { return RunHeapChurn(kPending, kOps / 2, &sink); }));
  results.push_back(Timed("figure_sweep_quick", [] { return RunQuickFigureSweep(); }));

  EngineOpLog log;
  if (!log.Record(Fig15Leg())) {
    std::fprintf(stderr, "replay_fig15: recorded stream skips a sequence number\n");
    return 1;
  }
  // The reference: the recorded stream through the (when, seq) heap, then
  // once through the wheel to compare every NextTime() answer.
  std::vector<uint32_t> fired;
  fired.reserve(log.fires());
  std::vector<SimTime> reference_probes;
  {
    HeapQueue reference;
    std::vector<std::shared_ptr<HeapQueue::State>> states(log.schedules());
    log.Replay(&reference, &states, &fired, &reference_probes);
  }
  const bool recorded_in_order = log.FiredInRecordedOrder(fired);
  std::vector<SimTime> probes;
  {
    scio::EventQueue queue;
    std::vector<scio::EventHandle> handles(log.schedules());
    fired.clear();
    log.Replay(&queue, &handles, &fired, &probes);
  }
  const bool probes_agree = probes == reference_probes;
  // One leg replays in tens of milliseconds, so the row is the median of
  // several passes, each into a fresh queue.
  constexpr int kReplayPasses = 9;
  std::vector<scio::EventHandle> handles(log.schedules());
  bool replay_in_order = true;
  std::vector<TimedResult> passes;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    fired.clear();
    scio::EventQueue queue;
    TimedResult r = Timed("replay_fig15", [&] { return log.Replay(&queue, &handles, &fired); });
    r.routes_per_schedule = static_cast<double>(queue.counters().routes) /
                            static_cast<double>(log.schedules());
    r.slot_searches_per_fire = static_cast<double>(queue.counters().slot_searches) /
                               static_cast<double>(log.fires());
    replay_in_order = replay_in_order && log.FiredInRecordedOrder(fired);
    passes.push_back(r);
  }
  std::sort(passes.begin(), passes.end(),
            [](const TimedResult& a, const TimedResult& b) { return a.wall_ms < b.wall_ms; });
  results.push_back(passes[kReplayPasses / 2]);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const TimedResult& r = results[i];
    std::fprintf(f,
                 "  \"%s\": {\"wall_ms\": %.3f, \"events_scheduled\": %llu, "
                 "\"allocs\": %llu",
                 r.name.c_str(), r.wall_ms,
                 static_cast<unsigned long long>(r.events_scheduled),
                 static_cast<unsigned long long>(r.allocs));
    if (r.routes_per_schedule >= 0) {
      std::fprintf(f, ", \"routes_per_schedule\": %.3f, \"slot_searches_per_fire\": %.3f",
                   r.routes_per_schedule, r.slot_searches_per_fire);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);

  for (const TimedResult& r : results) {
    std::printf("%-22s %10.3f ms  %12llu events  %12llu allocs", r.name.c_str(),
                r.wall_ms, static_cast<unsigned long long>(r.events_scheduled),
                static_cast<unsigned long long>(r.allocs));
    if (r.routes_per_schedule >= 0) {
      std::printf("  %.3f routes/schedule  %.3f slot searches/fire", r.routes_per_schedule,
                  r.slot_searches_per_fire);
    }
    std::printf("\n");
  }
  std::printf("steady speedup (heap/wheel): %.2fx\n",
              results[1].wall_ms / results[0].wall_ms);
  std::printf("churn  speedup (heap/wheel): %.2fx\n",
              results[3].wall_ms / results[2].wall_ms);
  std::printf("(json written to %s)\n", out_path);
  (void)sink;
  if (!recorded_in_order) {
    std::fprintf(stderr, "replay_fig15: the recorded leg fired out of (when, seq) order\n");
  }
  if (!probes_agree) {
    std::fprintf(stderr, "replay_fig15: a NextTime() answer differs from the reference's\n");
  }
  if (!replay_in_order) {
    std::fprintf(stderr, "replay_fig15: the replay fired in a different order than the "
                         "recorded leg\n");
  }
  return recorded_in_order && probes_agree && replay_in_order ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gbench") == 0) {
    argv[1] = argv[0];
    ++argv;
    --argc;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  return JsonMain(out_path);
}
