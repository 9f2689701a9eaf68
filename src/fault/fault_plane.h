// FaultPlane: seeded, deterministic fault injection for the simulated stack.
//
// The reproduction's robustness claims ("the server survives signal-queue
// overflow", "degrades gracefully under descriptor exhaustion") are only as
// good as our ability to produce those regimes on demand. A FaultSchedule is
// a list of time windows, each activating one fault kind; the FaultPlane
// evaluates them against the simulation clock and a seeded RNG, so the same
// seed + schedule always yields the identical fault sequence — failures are
// reproducible bit-for-bit, which is what makes torture runs debuggable.
//
// Injection points:
//   - SimKernel/Sys syscalls: EMFILE on accept()/open, ENOMEM on /dev/poll
//     interest-set growth, EINTR on blocking waits, and a forced RT signal
//     queue cap that triggers early SIGIO overflow;
//   - src/net Links: packet loss (transport-plane frames are dropped and
//     really retransmitted; legacy reliable pipes deliver late by a
//     retransmission penalty, keeping the byte stream intact as TCP
//     guarantees), latency spikes, and link flap windows during which
//     deliveries are held;
//   - src/load: abusive client profiles live in src/load/abusive_clients.h
//     and ride the same seeds.

#ifndef SRC_FAULT_FAULT_PLANE_H_
#define SRC_FAULT_FAULT_PLANE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/trace/flight_recorder.h"

namespace scio {

enum class FaultKind {
  kAcceptEmfile,    // accept() fails with EMFILE
  kOpenEmfile,      // socket()/open("/dev/poll") fails with EMFILE
  kInterestEnomem,  // /dev/poll interest-set growth fails with ENOMEM
  kEintr,           // blocking waits return EINTR
  kRtQueueShrink,   // RT signal queue capped at `magnitude` entries
  kPacketLoss,      // frame dropped (transport plane); legacy pipes deliver
                    // late by the penalty instead
  kLatencySpike,    // extra one-way delay on every packet
  kLinkFlap,        // link down: deliveries held until the window closes
};

// Which link direction a network fault applies to.
enum class LinkDir {
  kBoth,
  kToServer,
  kToClient,
};

struct FaultWindow {
  FaultKind kind = FaultKind::kEintr;
  // Half-open activity window [start, end) in absolute simulation time.
  SimTime start = 0;
  SimTime end = kSimTimeNever;
  // Chance that one opportunity (one syscall, one packet) is hit while the
  // window is active. Deterministic faults use 1.0.
  double probability = 1.0;
  // Kind-specific magnitude:
  //   kRtQueueShrink — the forced queue cap (entries);
  //   kPacketLoss    — legacy-pipe retransmission penalty in ns (delivery
  //                    delay; transport-plane frames drop regardless);
  //   kLatencySpike  — extra one-way delay in ns.
  double magnitude = 0;
  LinkDir dir = LinkDir::kBoth;
};

struct FaultSchedule {
  std::string name = "none";
  uint64_t seed = 1;
  std::vector<FaultWindow> windows;

  FaultSchedule& Add(FaultWindow window) {
    windows.push_back(window);
    return *this;
  }
  bool empty() const { return windows.empty(); }
};

// Everything the plane injected, for benchmark reports and determinism
// checks (identical seeds must produce identical rows).
struct FaultStats {
  uint64_t accept_emfile_injected = 0;
  uint64_t open_emfile_injected = 0;
  uint64_t interest_enomem_injected = 0;
  uint64_t eintr_injected = 0;
  uint64_t rt_signals_shed = 0;     // dropped by the forced queue cap
  uint64_t packets_lost = 0;        // frames hit by a loss window
  uint64_t packets_spiked = 0;      // hit by a latency spike
  uint64_t packets_flap_held = 0;   // held until a link flap window closed

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

class FaultPlane {
 public:
  FaultPlane(Simulator* sim, FaultSchedule schedule);
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // --- syscall-side queries (one call = one injection opportunity) ------------
  bool InjectAcceptEmfile();
  bool InjectOpenEmfile();
  bool InjectInterestEnomem();
  bool InjectEintr();

  // Active forced RT queue cap, or nullopt outside a shrink window.
  std::optional<size_t> RtQueueCap() const;
  void CountShedSignal() { ++stats_.rt_signals_shed; }

  // --- network-side query, one per Link::Transmit ------------------------------
  struct TransmitFault {
    SimDuration extra_delay = 0;   // spikes: added to the arrival time
    SimTime hold_until = 0;        // flap: not delivered before this time (0 = none)
    bool lost = false;             // a kPacketLoss window hit this frame
    SimDuration loss_penalty = 0;  // the window's magnitude, when lost
  };
  TransmitFault OnTransmit(bool toward_server);

  const FaultStats& stats() const { return stats_; }
  const FaultSchedule& schedule() const { return schedule_; }

  // Optional flight recorder: every injection logs a kFault instant. Pure
  // observer — attaching one cannot change what gets injected.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  const FaultWindow* ActiveWindow(FaultKind kind,
                                  LinkDir dir = LinkDir::kBoth) const;
  // One probabilistic draw against an active window (nullptr = no window).
  bool Roll(const FaultWindow* window);

  void RecordInjection(const char* name, int32_t arg0 = 0) {
    if (recorder_ != nullptr) {
      recorder_->Record({sim_->now(), 0, 0, arg0, 0, TraceEventType::kFault, name});
    }
  }

  Simulator* sim_;
  FaultSchedule schedule_;
  Rng rng_;
  FaultStats stats_;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace scio

#endif  // SRC_FAULT_FAULT_PLANE_H_
