#include "src/smp/smp_scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/smp/fiber.h"

namespace scio {
namespace {

// Deterministic LCG for seeded tie-breaking (same constants as PCG's
// default multiplier; any full-period LCG works).
constexpr uint64_t kLcgMul = 6364136223846793005ULL;
constexpr uint64_t kLcgInc = 1442695040888963407ULL;

}  // namespace

SmpScheduler::SmpScheduler(SimKernel* kernel, int cpus, uint64_t seed)
    : kernel_(kernel),
      seed_(seed),
      rr_cursor_(seed * kLcgMul + kLcgInc),
      cpu_free_at_(static_cast<size_t>(cpus < 1 ? 1 : cpus), 0),
      cpu_last_worker_(static_cast<size_t>(cpus < 1 ? 1 : cpus), -1),
      cpu_ledgers_(static_cast<size_t>(cpus < 1 ? 1 : cpus)) {}

SmpScheduler::~SmpScheduler() { assert(!running_ && "destroying a scheduler mid-Run()"); }

void SmpScheduler::AddWorker(Process* proc, std::function<void()> body) {
  assert(!running_ && "workers must be added before Run()");
  auto ctx = std::make_unique<Ctx>();
  ctx->proc = proc;
  ctx->body = std::move(body);
  ctx->cpu = static_cast<int>(ctxs_.size()) % cpus();
  ctxs_.push_back(std::move(ctx));
}

void SmpScheduler::Run() {
  assert(current_ == kMain && "Run() must not be called from a worker");
  if (ctxs_.empty()) {
    return;
  }
  Fiber main;
  for (size_t i = 0; i < ctxs_.size(); ++i) {
    ctxs_[i]->fiber = std::make_unique<Fiber>([this, i] { WorkerMain(static_cast<int>(i)); });
  }
  main_ = &main;
  running_ = true;
  kernel_->set_smp(this);
  // Hand the baton to the first worker; we are granted it back only when
  // every worker body has returned.
  Reschedule(kMain);
  kernel_->set_smp(nullptr);
  running_ = false;
  main_ = nullptr;
  for (auto& ctx : ctxs_) {
    assert(ctx->state == State::kDone);
    ctx->fiber.reset();
  }
}

bool SmpScheduler::InWorkerContext() const { return running_ && current_ >= 0; }

void SmpScheduler::OnCharge(SimDuration total) {
  Ctx& me = *ctxs_[current_];
  me.local_time += total;
  if (cpu_free_at_[me.cpu] < me.local_time) {
    cpu_free_at_[me.cpu] = me.local_time;
  }
  // Yield: another worker whose CPU is free earlier may run first; the fast
  // path (we are still the earliest runnable) returns without a handoff.
  Reschedule(current_);
}

bool SmpScheduler::OnBlock(Process& proc, SimTime deadline) {
  Ctx& me = *ctxs_[current_];
  assert(me.proc == &proc && "a worker may only block its own process");
  (void)proc;
  me.state = State::kBlocked;
  me.block_deadline = deadline;
  Reschedule(current_);
  // Granted again: either the wake flag is set, the deadline passed, or the
  // kernel stopped (flag stays false for the latter two).
  return me.proc->woken();
}

void SmpScheduler::OnAttribute(ChargeCat cat, SimDuration d) {
  cpu_ledgers_[ctxs_[current_]->cpu].Add(cat, d);
}

SimTime SmpScheduler::ChargeHorizon() const {
  // Reschedule after a charge by the running worker is a no-op while its
  // clock stays strictly below every other ready worker's runnable time (no
  // handoff, no tie for the LCG to break) and every blocked deadline (no
  // promotion), and no blocked worker is woken or stopped yet. A ready peer
  // on the running worker's own CPU is runnable no later than now, so it
  // leaves no room at all.
  if (kernel_->stopped() || AnyBlockedWoken()) {
    return kernel_->now();
  }
  SimTime horizon = MinBlockedDeadline();
  for (size_t i = 0; i < ctxs_.size(); ++i) {
    if (ctxs_[i]->state == State::kReady && static_cast<int>(i) != current_) {
      horizon = std::min(horizon, RunnableAt(*ctxs_[i]));
    }
  }
  return horizon;
}

void SmpScheduler::ChargeLocal(Ctx& ctx, ChargeCat cat, SimDuration d) {
  const SimTime at = RunnableAt(ctx);
  ctx.local_time = at + d;
  cpu_free_at_[ctx.cpu] = at + d;
  cpu_ledgers_[ctx.cpu].Add(cat, d);
  kernel_->AccountSmp(cat, d);
}

void SmpScheduler::PromoteWoken() {
  const SimTime now = kernel_->sim().now();
  for (auto& ctx : ctxs_) {
    if (ctx->state != State::kBlocked) {
      continue;
    }
    if (ctx->proc->woken() || now >= ctx->block_deadline || kernel_->stopped()) {
      ctx->state = State::kReady;
      if (ctx->local_time < now) {
        ctx->local_time = now;
      }
    }
  }
}

SimTime SmpScheduler::MinBlockedDeadline() const {
  SimTime min = kSimTimeNever;
  for (const auto& ctx : ctxs_) {
    if (ctx->state == State::kBlocked && ctx->block_deadline < min) {
      min = ctx->block_deadline;
    }
  }
  return min;
}

bool SmpScheduler::AnyBlockedWoken() const {
  for (const auto& ctx : ctxs_) {
    if (ctx->state == State::kBlocked && ctx->proc->woken()) {
      return true;
    }
  }
  return false;
}

void SmpScheduler::Reschedule(int cur) {
  Simulator& sim = kernel_->sim();
  while (true) {
    PromoteWoken();

    // Pick the ready worker whose CPU can run it earliest; seeded-LCG
    // tie-break so N workers ready at the same instant don't always run in
    // index order (a real SMP kernel gives no such guarantee, and the seed
    // gate proves the schedule is a function of the seed alone).
    int next = -1;
    SimTime next_at = kSimTimeNever;
    int ties = 0;
    for (size_t i = 0; i < ctxs_.size(); ++i) {
      if (ctxs_[i]->state != State::kReady) {
        continue;
      }
      const SimTime at = RunnableAt(*ctxs_[i]);
      if (at < next_at) {
        next = static_cast<int>(i);
        next_at = at;
        ties = 1;
      } else if (at == next_at) {
        ++ties;
      }
    }
    if (ties > 1) {
      // One LCG step picks the k-th of the tied workers in index order.
      rr_cursor_ = rr_cursor_ * kLcgMul + kLcgInc;
      uint64_t k = (rr_cursor_ >> 33) % static_cast<uint64_t>(ties);
      for (size_t i = 0; i < ctxs_.size(); ++i) {
        if (ctxs_[i]->state == State::kReady && RunnableAt(*ctxs_[i]) == next_at &&
            k-- == 0) {
          next = static_cast<int>(i);
          break;
        }
      }
    }

    if (next < 0) {
      // Nobody is ready. Either everyone is done (hand the baton home) or
      // everyone is blocked (run simulation events toward the earliest
      // deadline, stopping early if an event wakes someone).
      bool all_done = true;
      for (const auto& ctx : ctxs_) {
        if (ctx->state != State::kDone) {
          all_done = false;
          break;
        }
      }
      if (all_done) {
        if (cur != kMain) {
          HandOff(cur, kMain);
        }
        return;
      }
      const SimTime step_to = MinBlockedDeadline();
      if (sim.pending_count() == 0) {
        if (step_to == kSimTimeNever) {
          // Nothing in the world can ever wake them: force a spurious
          // timeout so every blocked worker resumes (wake flag false) and
          // can observe shutdown conditions instead of deadlocking.
          for (auto& ctx : ctxs_) {
            if (ctx->state == State::kBlocked) {
              ctx->state = State::kReady;
              if (ctx->local_time < sim.now()) {
                ctx->local_time = sim.now();
              }
            }
          }
        } else {
          // No events left before the earliest deadline: jump straight to it
          // so the timed-out worker promotes on the next pass.
          sim.AdvanceTo(step_to);
        }
        continue;
      }
      (void)sim.StepUntil(
          [this, &sim] {
            return AnyBlockedWoken() || kernel_->stopped() || sim.pending_count() == 0;
          },
          step_to);
      continue;
    }

    // Run simulation events up to the next worker's resume point; an event
    // may wake a blocked worker first, in which case we re-pick. Once the
    // kernel is stopped, event fidelity no longer matters — grant directly
    // so shutdown can't spin on a permanently-true stop predicate.
    if (next_at > sim.now() && !kernel_->stopped()) {
      const bool interrupted = sim.StepUntil(
          [this] { return AnyBlockedWoken() || kernel_->stopped(); }, next_at);
      if (interrupted) {
        continue;
      }
    }

    // Charge the context switch before granting: it occupies the CPU, so it
    // pushes the worker's resume point out and the pick must be redone (a
    // worker on another CPU may now be earlier).
    Ctx& nc = *ctxs_[next];
    if (cpu_last_worker_[nc.cpu] != next) {
      cpu_last_worker_[nc.cpu] = next;
      ++kernel_->stats().smp_context_switches;
      ChargeLocal(nc, ChargeCat::kSmpSched, kernel_->cost().smp_context_switch);
      continue;
    }

    // Grant: the worker's local clock catches up to its CPU's availability.
    nc.local_time = next_at;
    if (next != cur) {
      HandOff(cur, next);
    }
    return;
  }
}

void SmpScheduler::HandOff(int cur, int next) {
  Fiber& from = cur == kMain ? *main_ : *ctxs_[cur]->fiber;
  Fiber& to = next == kMain ? *main_ : *ctxs_[next]->fiber;
  current_ = next;
  if (cur != kMain && ctxs_[cur]->state == State::kDone) {
    from.ExitTo(to);  // a finished worker hands the baton off for good
  }
  from.SwitchTo(to);
}

void SmpScheduler::WorkerMain(int index) {
  ctxs_[index]->body();
  ctxs_[index]->state = State::kDone;
  // Pass the baton on (to another worker or back to Run()); never returns.
  Reschedule(index);
}

}  // namespace scio
