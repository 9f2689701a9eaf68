// MICRO-4: the event engine on the simulator's own traffic.
//
//   ./bench_micro_engine [out.json]   (default BENCH_engine.json; used by CI)
//
// Records the engine op stream of five simulator legs through the flight
// recorder's engine tap and replays each stream, op by op, into a fresh
// timer-wheel EventQueue and into HeapQueue, the priority-queue-of-
// allocations engine the wheel replaced. Each leg is one replay_<leg> row of
// the JSON: the wheel's median wall_ms with its routes per schedule, slot
// searches per fire, allocations and two due-run path counts; heap_wall_ms,
// the heap's median on the same stream; and allocs_per_conn, the heap
// allocations per connection of one unrecorded run of the leg's config.
//
// The legs are picked by the engine paths they reach. fig15 is the common
// case. The others reach the due-run paths fig15 never does:
// transport_loss1 peeks at a cancelled entry after a fire and drains slots
// whose same-time events are out of seq order, torture_pkt_loss drains
// hundreds of such slots, and the two pools cancel a cached due-run head,
// which smp_1cpu's next probe reads. head_cancel_resolves and
// cancelled_peek_resolves count the two cancelled-head paths.
//
// Exits 1 if any leg is out of (when, seq) order: its recorded fires or the
// wheel's NextTime() answers against the same stream replayed into
// HeapQueue, or the wheel's replay against the recording. Also exits 1 if
// transport_loss1 resolves no cancelled peek or smp_1cpu no cancelled
// cached head: each is the one leg whose order check covers that path. And
// it exits 1 if a leg's allocs_per_conn passes that leg's ceiling: the
// count repeats exactly for one toolchain, and the ceilings sit ~30% above
// the allocation-free connection path's values, so a new allocation per
// connection on the socket path fails it. Timings never fail it.

#include <algorithm>
#include <chrono>
#include <cstdio>
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

// --- the legacy engine: the order reference and the baseline ----------------
//
// A std::priority_queue of entries carrying a std::function plus a
// shared_ptr cancellation block, exactly the allocation behaviour src/sim
// had before the wheel.

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

// --- recorded legs -----------------------------------------------------------
//
// The engine op stream of one simulator run, replayed op by op against a
// fresh queue: the same schedule times in the same order (so the same
// sequence numbers), the same cancels, NextTime() probes and fires. Each
// replayed event stamps its schedule index when it fires. The wheel replays
// the recording by construction, so on its own that only checks the replay
// is faithful; the order check is the same stream replayed into HeapQueue,
// whose fires are the (when, seq) order the recorded run had to follow and
// whose NextTime() answers are what the wheel's must be.

// Every NextTime() answer is summed into it, so no probe is optimised away.
volatile uint64_t g_probe_sink = 0;

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
  // `handles` must hold schedules() entries.
  template <typename Queue, typename Handle>
  void Replay(Queue* queue, std::vector<Handle>* handles, std::vector<uint32_t>* fired,
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
    g_probe_sink = sink;
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

// simbench transport_lossy's thttpd-epoll-ET / BBR / loss1 leg at its
// default seed: the TCP transport plane under 1% loss both ways.
scio::BenchmarkRunConfig TransportLoss1Leg() {
  scio::BenchmarkRunConfig config;
  config.server = scio::ServerKind::kThttpdEpollEt;
  config.active.request_rate = 300;
  config.active.duration = scio::Seconds(8);
  config.active.seed = 17;
  config.active.max_retries = 3;
  config.inactive.connections = 50;
  config.inactive.seed = 2;
  config.transport_enabled = true;
  config.transport.default_cc = scio::CcKind::kBbr;
  config.transport.seed = 5 + static_cast<uint64_t>(scio::CcKind::kBbr);
  config.faults.seed = 211;
  config.faults.Add({scio::FaultKind::kPacketLoss, 0, scio::kSimTimeNever, 0.01,
                     static_cast<double>(scio::Millis(150)), scio::LinkDir::kBoth});
  return config;
}

// simbench smp_4cpu's sharded thttpd-devpoll leg at its default seed: four
// workers on four CPUs under 4500 conn/s.
scio::BenchmarkRunConfig SmpShardedLeg() {
  scio::BenchmarkRunConfig config;
  config.server = scio::ServerKind::kThttpdDevPoll;
  config.mode = scio::ListenerMode::kSharded;
  config.workers = 4;
  config.cpus = 4;
  config.seed = 1789;
  config.active.seed = 17;
  config.inactive.seed = 23;
  config.warmup = scio::Millis(500);
  config.drain = scio::Seconds(1);
  config.active.request_rate = 4500;
  config.active.duration = scio::Seconds(1);
  config.active.poisson_arrivals = false;
  config.inactive.connections = 501;
  config.net.bandwidth_bps = 1e9;
  return config;
}

// The same pool on one worker and one CPU, which 4500 conn/s saturates: a
// reply lands in the very tick its client's timeout was due, and the cancel
// of that due-run head is read by the next probe.
scio::BenchmarkRunConfig SmpOneCpuLeg() {
  scio::BenchmarkRunConfig config = SmpShardedLeg();
  config.workers = 1;
  config.cpus = 1;
  return config;
}

// bench_torture_recovery's pkt-loss schedule on thttpd-devpoll: 10% loss
// both ways from 5 s to 8 s, clients retrying.
scio::BenchmarkRunConfig TorturePktLossLeg() {
  scio::BenchmarkRunConfig config;
  config.server = scio::ServerKind::kThttpdDevPoll;
  config.active.request_rate = 600;
  config.active.duration = scio::Seconds(10);
  config.active.seed = 11;
  config.active.max_retries = 3;
  config.inactive.connections = 50;
  config.faults.seed = 101;
  config.faults.Add({scio::FaultKind::kPacketLoss, scio::Seconds(5), scio::Seconds(8), 0.1,
                     static_cast<double>(scio::Millis(150)), scio::LinkDir::kBoth});
  return config;
}

// --- rows --------------------------------------------------------------------

struct Row {
  std::string name;
  double wall_ms = 0;       // wheel replay, median of kReplayPasses
  double heap_wall_ms = 0;  // HeapQueue replay of the same stream, median
  uint64_t events_scheduled = 0;
  uint64_t allocs = 0;      // wheel replay
  double routes_per_schedule = 0;
  double slot_searches_per_fire = 0;
  scio::EventQueue::Counters counters;  // wheel replay
  double allocs_per_conn = 0;  // one unrecorded run of the leg's config
};

// A due-run path that only one leg's order check covers: its engine counter
// and that counter's JSON key.
struct ThinPath {
  const char* counter;
  uint64_t scio::EventQueue::Counters::*count;
};
constexpr ThinPath kHeadCancel{"head_cancel_resolves",
                               &scio::EventQueue::Counters::head_cancel_resolves};
constexpr ThinPath kCancelledPeek{"cancelled_peek_resolves",
                                  &scio::EventQueue::Counters::cancelled_peek_resolves};

// One leg replays in milliseconds to tens of them, so each time is the
// median of several passes, each into a fresh queue.
constexpr int kReplayPasses = 9;

template <typename Fn>
double WallMs(Fn fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Records `config` as replay_<name>, checks its order and times it. Returns
// false, after saying why on stderr, if the leg fails the order gate, misses
// `must_reach` (if given) or allocates more than `max_allocs_per_conn`.
bool RunLeg(const char* name, const scio::BenchmarkRunConfig& config,
            const ThinPath* must_reach, double max_allocs_per_conn, Row* row) {
  row->name = std::string("replay_") + name;
  const char* label = row->name.c_str();
  EngineOpLog log;
  if (!log.Record(config)) {
    std::fprintf(stderr, "%s: recorded stream skips a sequence number\n", label);
    return false;
  }
  row->events_scheduled = log.schedules();

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

  // Timed passes, wheel and heap alternating.
  std::vector<scio::EventHandle> handles(log.schedules());
  std::vector<std::shared_ptr<HeapQueue::State>> states(log.schedules());
  bool replay_in_order = true;
  std::vector<double> wheel_ms;
  std::vector<double> heap_ms;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    fired.clear();
    scio::EventQueue queue;
    const uint64_t allocs_before = scio::HeapAllocCount();
    wheel_ms.push_back(WallMs([&] { log.Replay(&queue, &handles, &fired); }));
    row->allocs = scio::HeapAllocCount() - allocs_before;
    row->routes_per_schedule = static_cast<double>(queue.counters().routes) /
                               static_cast<double>(log.schedules());
    row->slot_searches_per_fire = static_cast<double>(queue.counters().slot_searches) /
                                  static_cast<double>(log.fires());
    row->counters = queue.counters();
    replay_in_order = replay_in_order && log.FiredInRecordedOrder(fired);

    fired.clear();
    HeapQueue heap;
    heap_ms.push_back(WallMs([&] { log.Replay(&heap, &states, &fired); }));
    states.assign(states.size(), nullptr);
  }
  row->wall_ms = Median(wheel_ms);
  row->heap_wall_ms = Median(heap_ms);

  // The run's own heap traffic, without the tap.
  const uint64_t run_allocs_before = scio::HeapAllocCount();
  const scio::BenchmarkResult result = scio::RunBenchmark(config);
  row->allocs_per_conn = static_cast<double>(scio::HeapAllocCount() - run_allocs_before) /
                         static_cast<double>(std::max<uint64_t>(result.total_accepted, 1));

  if (!recorded_in_order) {
    std::fprintf(stderr, "%s: the recorded leg fired out of (when, seq) order\n", label);
  }
  if (!probes_agree) {
    std::fprintf(stderr, "%s: a NextTime() answer differs from the reference's\n", label);
  }
  if (!replay_in_order) {
    std::fprintf(stderr, "%s: the replay fired in a different order than the recorded leg\n",
                 label);
  }
  const bool reaches = must_reach == nullptr || row->counters.*must_reach->count > 0;
  if (!reaches) {
    std::fprintf(stderr, "%s: %s is 0, so no leg checks that path\n", label,
                 must_reach->counter);
  }
  const bool lean = row->allocs_per_conn <= max_allocs_per_conn;
  if (!lean) {
    std::fprintf(stderr, "%s: %.2f heap allocations per connection, above the ceiling of %.1f\n",
                 label, row->allocs_per_conn, max_allocs_per_conn);
  }
  return recorded_in_order && probes_agree && replay_in_order && reaches && lean;
}

void WriteJson(FILE* f, const std::vector<Row>& rows) {
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  \"%s\": {\"wall_ms\": %.3f, \"heap_wall_ms\": %.3f, "
                 "\"events_scheduled\": %llu, \"allocs\": %llu, "
                 "\"routes_per_schedule\": %.3f, \"slot_searches_per_fire\": %.3f, "
                 "\"head_cancel_resolves\": %llu, \"cancelled_peek_resolves\": %llu, "
                 "\"allocs_per_conn\": %.1f}%s\n",
                 r.name.c_str(), r.wall_ms, r.heap_wall_ms,
                 static_cast<unsigned long long>(r.events_scheduled),
                 static_cast<unsigned long long>(r.allocs), r.routes_per_schedule,
                 r.slot_searches_per_fire,
                 static_cast<unsigned long long>(r.counters.head_cancel_resolves),
                 static_cast<unsigned long long>(r.counters.cancelled_peek_resolves),
                 r.allocs_per_conn, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  // Ceilings on allocs_per_conn: the fig15 leg's is the socket path's
  // target, at most 3 per connection; transport_loss1 adds the transport
  // plane's segment copies and SACK map.
  const struct {
    const char* name;
    scio::BenchmarkRunConfig config;
    const ThinPath* must_reach;
    double max_allocs_per_conn;
  } legs[] = {
      {"fig15", Fig15Leg(), nullptr, 3.0},
      {"transport_loss1", TransportLoss1Leg(), &kCancelledPeek, 7.5},
      {"smp_sharded", SmpShardedLeg(), nullptr, 3.0},
      {"smp_1cpu", SmpOneCpuLeg(), &kHeadCancel, 4.0},
      {"torture_pkt_loss", TorturePktLossLeg(), nullptr, 3.5},
  };
  bool passed = true;
  std::vector<Row> rows;
  for (const auto& leg : legs) {
    Row row;
    passed = RunLeg(leg.name, leg.config, leg.must_reach, leg.max_allocs_per_conn, &row) &&
               passed;
    rows.push_back(row);
  }
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  WriteJson(f, rows);
  std::fclose(f);
  WriteJson(stdout, rows);
  return passed ? 0 : 1;
}
