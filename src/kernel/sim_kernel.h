// SimKernel: the simulated machine.
//
// Binds the discrete-event simulator to the fixed cost model and process
// contexts. Two time-accounting primitives drive everything:
//
//   Charge(ns)   — the running process consumes virtual CPU. The clock moves
//                  forward and any network/client events that fall inside the
//                  busy window execute first, so packets keep arriving while
//                  the server computes. Pending interrupt debt is folded in.
//
//   ChargeDebt() — interrupt-context work (packet processing, RT signal
//                  enqueueing, hint marking). It cannot advance the clock
//                  from inside an event callback, so it accrues as debt that
//                  the next Charge() pays. While the server is blocked, debt
//                  is absorbed by idle time instead (see BlockProcess).
//
// Every charge names a ChargeCat, and the TimeAttribution ledger keeps the
// hard invariant  attribution().Sum() == busy_time()  at every instant: a
// multi-part charge (one syscall trap plus per-byte copy work, say) passes
// one ChargeItem per category but is applied as a single charge, so the
// clock motion — and therefore every seeded run — is bit-identical to an
// untagged charge of the same total.
//
// Charge runs. A scan that charges the same per-entry cost n times can fold
// the units into one clock move (ChargeRepeated) as long as none of them
// would have run an event: unit j of a run is deferrable only while
//   now + pending debt + j·d < bound
// where the bound is NextTime() (DeferrableCharges is that count). In SMP
// worker context every charge is a scheduling point, so the bound is also
// capped by SmpPlane::ChargeHorizon(): no deferred unit would have promoted
// a worker, handed the CPU to another, or drawn a scheduling tie-break.
// Within the bound nothing can observe the deferred clock, so the run is
// bit-identical to n Charge() calls.
//
// BlockProcess() implements blocking syscalls: it runs simulation events
// until the process is woken (by a wait-queue wakeup or a signal) or a
// deadline passes. WaitFor() is the one protocol around it that the five
// blocking waits share (see there), and in src/ its only caller.

#ifndef SRC_KERNEL_SIM_KERNEL_H_
#define SRC_KERNEL_SIM_KERNEL_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_plane.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/kernel_stats.h"
#include "src/kernel/process.h"
#include "src/kernel/sys_errno.h"
#include "src/sim/simulator.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/mem_ledger.h"
#include "src/trace/time_attribution.h"

namespace scio {

// One component of a (possibly multi-category) charge.
struct ChargeItem {
  ChargeCat cat;
  SimDuration d;
};

// Hook interface for the SMP scheduling plane (src/smp). When a plane is
// attached and the calling code runs in a worker's context, Charge() and
// BlockProcess() delegate clock motion to the plane: a worker's charge moves
// its *local* CPU clock (the global clock advances only when the scheduler
// runs simulation events up to the next runnable worker), and a blocked
// worker yields its CPU instead of stepping the simulator inline. With no
// plane attached — every pre-SMP configuration — both paths are untouched,
// so single-CPU runs stay bit-identical. Declared here (not in src/smp) so
// scio_kernel does not depend on the scheduler library.
class SmpPlane {
 public:
  virtual ~SmpPlane() = default;
  // True when called from a scheduled worker (as opposed to the main thread
  // assembling the world or an event callback).
  virtual bool InWorkerContext() const = 0;
  // The running worker consumed `total` ns of virtual CPU (debt included).
  virtual void OnCharge(SimDuration total) = 0;
  // Block the running worker until proc.Wake() or `deadline`. Returns the
  // wake flag's state on resume (false = timeout / simulation stop).
  virtual bool OnBlock(Process& proc, SimTime deadline) = 0;
  // Mirror of TimeAttribution::Add for the running worker's CPU ledger.
  virtual void OnAttribute(ChargeCat cat, SimDuration d) = 0;
  // The running worker's next scheduling point: the earliest of every other
  // ready worker's runnable time, every blocked worker's deadline, and now
  // if a blocked worker is already woken or the kernel is stopped. A charge
  // that leaves the worker's clock strictly before it changes no schedule.
  virtual SimTime ChargeHorizon() const = 0;
};

class SimKernel {
 public:
  explicit SimKernel(Simulator* sim) : sim_(sim) {
    // Timer-wheel slabs count as kernel memory (MemSys::kTimers). The queue
    // reports through a plain function-pointer hook so scio_sim needs no
    // knowledge of the ledger.
    sim_->queue().set_mem_hook(&SimKernel::TimerMemHook, this);
  }
  ~SimKernel() {
    // The queue outlives this kernel in the usual declaration order; detach
    // so late pool growth cannot write into a dead ledger, and a recorder's
    // engine tap cannot outlive the run it was lent to.
    sim_->queue().set_mem_hook(nullptr, nullptr);
    sim_->queue().set_observer(nullptr, nullptr);
  }
  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  Simulator& sim() { return *sim_; }
  SimTime now() const { return sim_->now(); }
  static const CostModel& cost() { return kCostModel; }
  KernelStats& stats() { return stats_; }

  Process& CreateProcess(std::string name, int max_fds = 8192);

  // Consume virtual CPU in process context (see file comment), attributed to
  // `cat` in the ledger.
  void Charge(SimDuration d, ChargeCat cat) { Charge({{cat, d}}); }

  // Multi-category variant: applied as ONE charge of the summed duration
  // (identical clock motion), attributed per item.
  void Charge(std::initializer_list<ChargeItem> items);

  // How many Charge(d, ...) units could run back to back from here without
  // any of them running an event (see "Charge runs" above). Unbounded runs
  // (an empty queue) read as UINT64_MAX.
  uint64_t DeferrableCharges(SimDuration d);

  // Exactly what `n` Charge(d, cat) calls do — n·d attributed to
  // `cat`, pending debt paid once — applied as one clock move per event
  // horizon crossed (one move when n <= DeferrableCharges(d) + 1). n == 0
  // does nothing.
  void ChargeRepeated(SimDuration d, ChargeCat cat, uint64_t n);

  // Record interrupt-context work to be paid by the next Charge().
  void ChargeDebt(SimDuration d, ChargeCat cat) {
    interrupt_debt_ += d;
    debt_by_cat_[static_cast<size_t>(cat)] += d;
  }

  // Block `proc` until Wake() or `deadline`. Returns true if woken, false on
  // timeout or simulation stop. The process's wake flag is cleared on return.
  [[nodiscard]] bool BlockProcess(Process& proc, SimTime deadline);

  // True when a wait whose scan found `ready` events returns without
  // sleeping: events, a zero timeout, or a stop.
  bool ScanEndsWait(int ready, int timeout_ms) const {
    return ready > 0 || timeout_ms == 0 || stopped_;
  }

  // The blocking-wait protocol of poll(), DP_POLL, epoll_wait, kevent and
  // sigwaitinfo; each brings only its own scan and waiter registration.
  // Called after the syscall's argument checks, where the deadline starts
  // (timeout_ms < 0 waits forever). Each pass runs scan(), the ready count,
  // and returns it when ScanEndsWait(); at the deadline it returns 0.
  // Otherwise arm() registers the waiters a status change wakes, the process
  // sleeps until a wake or the deadline, disarm() unregisters them, and an
  // injected EINTR (drawn only after a sleep) returns kErrIntr; else it scans
  // again. A wake that lands while arm() or disarm() charges stays set, so
  // the next sleep returns at once.
  // sciolint: hotpath
  template <typename Scan, typename Arm, typename Disarm>
  int WaitFor(Process& proc, int timeout_ms, Scan&& scan, Arm&& arm, Disarm&& disarm) {
    const SimTime deadline = timeout_ms < 0 ? kSimTimeNever : now() + Millis(timeout_ms);
    while (true) {
      const int ready = scan();
      if (ScanEndsWait(ready, timeout_ms)) {
        return ready;
      }
      if (now() >= deadline) {
        return 0;
      }
      arm();
      // sciolint: allow(E1) -- woken-vs-timeout is re-derived from the rescan
      (void)BlockProcess(proc, deadline);
      disarm();
      if (fault_ != nullptr && fault_->InjectEintr()) {
        return kErrIntr;
      }
    }
  }

  // Queue an RT signal on `proc`, charging interrupt-side costs and updating
  // overflow statistics.
  void QueueRtSignal(Process& proc, const SigInfo& si);

  // Optional fault-injection plane. Null (the default) means no faults; the
  // syscall layer and servers consult it through these accessors.
  void set_fault_plane(FaultPlane* plane) { fault_ = plane; }
  FaultPlane* fault() { return fault_; }

  // Ask server loops to wind down; blocking syscalls return early.
  void RequestStop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // --- SMP scheduling plane ----------------------------------------------
  // Optional and borrowed; null (the default) means single-CPU semantics.
  void set_smp(SmpPlane* smp) { smp_ = smp; }
  SmpPlane* smp() { return smp_; }

  // Scheduler-side accounting for charges applied to a worker's local clock
  // (context switches): the global ledger and busy time must still cover
  // them or the attribution invariant would break.
  void AccountSmp(ChargeCat cat, SimDuration d) {
    attribution_.Add(cat, d);
    busy_time_ += d;
  }

  // Lifetime sum of Process::Wake() calls across every process — the herd
  // metric's raw material (wakeups per accepted connection).
  uint64_t TotalProcessWakes() const {
    uint64_t total = 0;
    for (const auto& p : processes_) {
      total += p->wake_calls();
    }
    return total;
  }

  SimDuration pending_interrupt_debt() const { return interrupt_debt_; }

  // Total virtual CPU consumed via Charge() — busy_time()/now() is the
  // server CPU utilization.
  SimDuration busy_time() const { return busy_time_; }

  // Where every charged nanosecond went. Invariant (pinned by tests):
  // attribution().Sum() == busy_time() at all times.
  const TimeAttribution& attribution() const { return attribution_; }

  // Where every tracked byte lives: descriptor-table pages, connection
  // slabs, interest nodes, timer-wheel chunks, buffered payload. Structures
  // register themselves (CreateProcess wires the fd table automatically);
  // the ledger's Sum() == total() invariant is pinned by tests the same way
  // the time ledger's is.
  MemLedger& mem() { return mem_; }
  const MemLedger& mem() const { return mem_; }

  // --- flight recorder ---------------------------------------------------
  // Optional and borrowed; null (the default) records nothing. The recorder
  // is a pure observer — attaching one cannot perturb a seeded run. Its
  // engine tap, if any, becomes the event queue's observer.
  void set_recorder(FlightRecorder* recorder) {
    recorder_ = recorder;
    sim_->queue().set_observer(recorder != nullptr ? recorder->engine_observer() : nullptr,
                               recorder != nullptr ? recorder->engine_observer_ctx() : nullptr);
  }
  FlightRecorder* recorder() { return recorder_; }

  // Record an instant event (no-op when no recorder is attached).
  void TraceInstant(TraceEventType type, const char* name, int32_t arg0 = 0,
                    int32_t arg1 = 0) {
    if (recorder_ != nullptr) {
      recorder_->Record({now(), 0, 0, arg0, arg1, type, name});
    }
  }

 private:
  static void TimerMemHook(void* ctx, long delta_bytes) {
    auto* kernel = static_cast<SimKernel*>(ctx);
    if (delta_bytes >= 0) {
      kernel->mem_.Add(MemSys::kTimers, static_cast<size_t>(delta_bytes));
    } else {
      kernel->mem_.Sub(MemSys::kTimers, static_cast<size_t>(-delta_bytes));
    }
  }

  bool InSmpWorker() const { return smp_ != nullptr && smp_->InWorkerContext(); }

  // Pay the pending debt and move the clock (or the running worker's CPU
  // clock) by it plus `d`, the already-attributed process-context part.
  // Inline (defined in sim_kernel.cc, its only caller): it is the tail of
  // Charge(), the simulator's hottest call.
  inline void PayAndAdvance(SimDuration d);

  // Ledger write that also feeds the running worker's per-CPU ledger when an
  // SMP plane is attached and we are in worker context.
  void Attribute(ChargeCat cat, SimDuration d) {
    attribution_.Add(cat, d);
    if (InSmpWorker()) {
      smp_->OnAttribute(cat, d);
    }
  }

  Simulator* sim_;
  KernelStats stats_;
  // Declared before processes_: descriptor tables and sockets record ledger
  // traffic from their destructors, so the ledger must outlive them.
  MemLedger mem_;
  std::vector<std::unique_ptr<Process>> processes_;
  SimDuration interrupt_debt_ = 0;
  // Per-category breakdown of interrupt_debt_ (same scalar, attributed when
  // the debt is paid; discarded with it when idle time absorbs the debt).
  SimDuration debt_by_cat_[kChargeCatCount] = {};
  SimDuration busy_time_ = 0;
  TimeAttribution attribution_;
  bool stopped_ = false;
  FaultPlane* fault_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  SmpPlane* smp_ = nullptr;
};

// RAII scope that records one syscall as a complete trace slice: wall
// duration (including blocked time) plus the virtual CPU charged inside.
// `name` must have static lifetime. Costs one branch when no recorder is
// attached.
class SyscallTraceScope {
 public:
  SyscallTraceScope(SimKernel* kernel, const char* name, int32_t arg0 = -1) {
    if (kernel->recorder() != nullptr) {
      kernel_ = kernel;
      name_ = name;
      arg0_ = arg0;
      begin_ = kernel->now();
      busy_begin_ = kernel->busy_time();
    }
  }
  ~SyscallTraceScope() {
    if (kernel_ != nullptr) {
      kernel_->recorder()->Record({begin_, kernel_->now() - begin_,
                                   kernel_->busy_time() - busy_begin_, arg0_, result_,
                                   TraceEventType::kSyscall, name_});
    }
  }
  SyscallTraceScope(const SyscallTraceScope&) = delete;
  SyscallTraceScope& operator=(const SyscallTraceScope&) = delete;

  void set_result(int32_t result) { result_ = result; }

 private:
  SimKernel* kernel_ = nullptr;  // null = inactive scope
  const char* name_ = "";
  SimTime begin_ = 0;
  SimDuration busy_begin_ = 0;
  int32_t arg0_ = -1;
  int32_t result_ = 0;
};

}  // namespace scio

#endif  // SRC_KERNEL_SIM_KERNEL_H_
