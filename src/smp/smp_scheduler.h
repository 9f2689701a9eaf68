// SmpScheduler: a deterministic round-robin scheduler for N virtual CPUs.
//
// The simulator stays single-threaded: each worker body is a deep blocking
// call stack (a server Run() loop inside simulated syscalls) that needs its
// own stack to suspend on, so each runs on a user-space Fiber (a ucontext_t
// on its own mmap'd stack), and exactly one context executes at any
// instant. Passing the baton is one swapcontext() on the host thread that
// called Run(): no OS thread, no lock, no concurrency — only cooperative
// context switching, which keeps every seeded run bit-identical.
//
// Time model: each worker owns a local CPU clock (`local_time`). A worker's
// Charge() advances only its local clock; the global simulator clock advances
// when the scheduler runs simulation events up to the next runnable worker's
// resume point. A CPU can run one worker at a time (`cpu_free_at_`), so two
// workers pinned to one CPU serialize, while workers on distinct CPUs overlap
// in virtual time — that is the whole point of the plane. Scheduling is
// round-robin with a seeded rotating cursor breaking ready-time ties, so the
// schedule is deterministic but not trivially index-ordered.
//
// Context switches are charged (CostModel::smp_context_switch) to the
// incoming worker's CPU under ChargeCat::kSmpSched, and each CPU keeps its
// own TimeAttribution ledger; the global ledger invariant
// attribution().Sum() == busy_time() still holds.
//
// Every worker charge reschedules, but most reschedules change nothing.
// ChargeHorizon() is how far the running worker's clock can move before one
// would: SimKernel folds the charges of a scan into one clock move up to it
// (a charge run), which hands off, promotes and tie-breaks exactly as the
// charges one by one would.

#ifndef SRC_SMP_SMP_SCHEDULER_H_
#define SRC_SMP_SMP_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/sim_kernel.h"
#include "src/sim/time.h"
#include "src/trace/time_attribution.h"

namespace scio {

class Fiber;

class SmpScheduler : public SmpPlane {
 public:
  // `cpus` virtual CPUs; `seed` perturbs only tie-breaking among workers that
  // become runnable at the same instant (two seeds give two valid SMP
  // serializations; one seed always gives the same one).
  SmpScheduler(SimKernel* kernel, int cpus, uint64_t seed);
  SmpScheduler(const SmpScheduler&) = delete;
  SmpScheduler& operator=(const SmpScheduler&) = delete;
  ~SmpScheduler() override;

  // Register a worker before Run(). Workers are pinned round-robin to CPUs
  // (worker i runs on CPU i % cpus). `body` is the worker's entire life: when
  // it returns, the worker is done.
  void AddWorker(Process* proc, std::function<void()> body);

  // Run every worker to completion. Attaches itself as the kernel's SMP
  // plane for the duration. Returns to the caller (which must not be a
  // worker) once all worker bodies have returned. Throws std::system_error
  // if a worker stack cannot be mapped.
  void Run();

  // --- SmpPlane ------------------------------------------------------------
  bool InWorkerContext() const override;
  void OnCharge(SimDuration total) override;
  bool OnBlock(Process& proc, SimTime deadline) override;
  void OnAttribute(ChargeCat cat, SimDuration d) override;
  SimTime ChargeHorizon() const override;

  int cpus() const { return static_cast<int>(cpu_free_at_.size()); }
  int workers() const { return static_cast<int>(ctxs_.size()); }
  // Per-CPU attribution ledger (valid after Run()).
  const TimeAttribution& cpu_ledger(int cpu) const { return cpu_ledgers_[cpu]; }

 private:
  enum class State { kReady, kBlocked, kDone };
  static constexpr int kMain = -1;

  struct Ctx {
    Process* proc = nullptr;
    std::function<void()> body;
    std::unique_ptr<Fiber> fiber;    // exists during Run()
    State state = State::kReady;
    SimTime local_time = 0;          // this worker's CPU clock
    SimTime block_deadline = 0;      // valid while kBlocked
    int cpu = 0;
  };

  // Scheduler-side charge applied to `ctx`'s local clock and CPU ledger
  // (already-running workers charge through SimKernel::Charge instead).
  void ChargeLocal(Ctx& ctx, ChargeCat cat, SimDuration d);

  // Move kBlocked workers whose wake flag is set / deadline passed / kernel
  // stopped to kReady at the current global time.
  void PromoteWoken();
  // Earliest moment a ctx could next occupy its CPU.
  SimTime RunnableAt(const Ctx& ctx) const {
    return ctx.local_time > cpu_free_at_[ctx.cpu] ? ctx.local_time
                                                  : cpu_free_at_[ctx.cpu];
  }
  SimTime MinBlockedDeadline() const;
  bool AnyBlockedWoken() const;
  // Pick the next worker and hand the baton over (or return immediately if
  // the caller keeps it). `cur` is the yielding context (kMain for Run()).
  void Reschedule(int cur);
  // Baton handoff: switch from `cur`'s context to `next`'s; returns when
  // `cur` is granted again (never, for a finished worker).
  void HandOff(int cur, int next);
  // A worker fiber's whole life: run the body, then pass the baton on.
  void WorkerMain(int index);

  SimKernel* kernel_;
  uint64_t seed_;
  uint64_t rr_cursor_;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  std::vector<SimTime> cpu_free_at_;
  std::vector<int> cpu_last_worker_;  // -1 = none yet
  std::vector<TimeAttribution> cpu_ledgers_;
  bool running_ = false;

  Fiber* main_ = nullptr;  // Run()'s own context, during Run()
  int current_ = kMain;    // the context executing right now
};

}  // namespace scio

#endif  // SRC_SMP_SMP_SCHEDULER_H_
