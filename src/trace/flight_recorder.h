// FlightRecorder: a fixed-capacity ring buffer of kernel/server events.
//
// The recorder is a passive observer: recording an event never charges
// virtual CPU, never touches the RNG, and never schedules anything, so a
// seeded run is bit-identical with the recorder attached or absent. When the
// ring fills, the oldest events are overwritten (and counted as dropped) —
// like a real flight recorder it always holds the most recent history.
//
// Exports:
//   - Chrome trace-event JSON (loads in about:tracing / Perfetto): syscalls
//     as complete slices with wall + charged durations, everything else as
//     instants, benchmark phases as a separate track;
//   - a per-phase breakdown table (event counts and charged time binned by
//     the phase marks the benchmark laid down).
//
// Detached (the default), every recording helper costs one null-pointer
// branch: SimKernel, SyscallTraceScope and the fault plane test for a
// recorder before building an event.

#ifndef SRC_TRACE_FLIGHT_RECORDER_H_
#define SRC_TRACE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/metrics/table.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace scio {

enum class TraceEventType : unsigned char {
  kSyscall,     // complete slice: [ts, ts+wall), charged = busy-time delta
  kScan,        // poll()/DP_POLL scan: arg0 = entries scanned, arg1 = ready
  kSignal,      // RT signal queue transition: queued/dropped/sigio/flush
  kModeSwitch,  // hybrid or phhttpd notification-mode change
  kFault,       // fault-plane injection
  kPhase,       // benchmark phase mark
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  SimTime ts = 0;
  SimDuration wall = 0;     // complete-event duration; 0 for instants
  SimDuration charged = 0;  // virtual CPU charged inside the event
  int32_t arg0 = 0;
  int32_t arg1 = 0;
  TraceEventType type = TraceEventType::kSyscall;
  const char* name = "";  // must point at static-lifetime storage
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const TraceEvent& event) {
    buffer_[next_] = event;
    next_ = next_ + 1 == buffer_.size() ? 0 : next_ + 1;
    if (count_ < buffer_.size()) {
      ++count_;
    }
    ++total_recorded_;
  }

  // Lay down a phase boundary (also visible in the ring as a kPhase instant).
  // `name` must have static lifetime; marks must be recorded in time order.
  void MarkPhase(const char* name, SimTime at);

  size_t capacity() const { return buffer_.size(); }
  size_t size() const { return count_; }
  uint64_t total_recorded() const { return total_recorded_; }
  uint64_t dropped() const { return total_recorded_ - count_; }

  // Events oldest → newest (only what the ring still holds).
  std::vector<TraceEvent> Snapshot() const;

  // Chrome trace-event JSON (the "traceEvents" array format).
  void WriteChromeTrace(std::ostream& out) const;
  bool WriteChromeTraceFile(const std::string& path) const;

  // Event counts and charged time per benchmark phase. Events recorded
  // before the first mark fall into the "(pre)" phase. Only what the ring
  // still holds is binned; `dropped()` says how much history was lost.
  Table PhaseBreakdown() const;

  void Clear();

  // Optional engine-op tap (borrowed context). SimKernel::set_recorder
  // installs it as the kernel's event-queue observer, so a recorded run can
  // also yield the engine's op stream (bench_micro_engine replays one fig15
  // leg from it). Like the ring, it only observes.
  void set_engine_observer(EventQueue::Observer observer, void* ctx) {
    engine_observer_ = observer;
    engine_observer_ctx_ = ctx;
  }
  EventQueue::Observer engine_observer() const { return engine_observer_; }
  void* engine_observer_ctx() const { return engine_observer_ctx_; }

 private:
  struct PhaseMark {
    const char* name;
    SimTime at;
  };

  std::vector<TraceEvent> buffer_;
  size_t next_ = 0;
  size_t count_ = 0;
  uint64_t total_recorded_ = 0;
  std::vector<PhaseMark> phases_;
  EventQueue::Observer engine_observer_ = nullptr;
  void* engine_observer_ctx_ = nullptr;
};

}  // namespace scio

#endif  // SRC_TRACE_FLIGHT_RECORDER_H_
