#include "src/kernel/sim_kernel.h"

#include <algorithm>

namespace scio {

Process& SimKernel::CreateProcess(std::string name, int max_fds) {
  processes_.push_back(std::make_unique<Process>(std::move(name), max_fds));
  processes_.back()->set_mem_ledger(&mem_);
  return *processes_.back();
}

void SimKernel::Charge(std::initializer_list<ChargeItem> items) {
  // Attributed per item, applied as one charge of the summed duration — the
  // clock motion is identical to the pre-attribution implementation, so
  // seeded runs stay bit-identical.
  SimDuration total = 0;
  for (const ChargeItem& item : items) {
    Attribute(item.cat, item.d);
    total += item.d;
  }
  PayAndAdvance(total);
}

uint64_t SimKernel::DeferrableCharges(SimDuration d) {
  SimTime bound = sim_->queue().NextTime();
  if (InSmpWorker()) {
    // The scheduler steps the global clock up to a worker's CPU clock before
    // granting it, so while a worker runs `start` below reads its clock.
    bound = std::min(bound, smp_->ChargeHorizon());
  }
  const SimTime start = sim_->now() + interrupt_debt_;
  if (bound <= start) {
    return 0;
  }
  if (bound == kSimTimeNever || d <= 0) {
    return UINT64_MAX;
  }
  // Largest j with start + j·d < bound.
  return static_cast<uint64_t>((bound - start - 1) / d);
}

void SimKernel::ChargeRepeated(SimDuration d, ChargeCat cat, uint64_t n) {
  while (n > 0) {
    // Units within the horizon run no event; the one after it may, at its
    // end, exactly as its own Charge() would. A longer run is split there.
    // A single unit is one Charge() and needs no horizon.
    const uint64_t horizon = n == 1 ? 0 : DeferrableCharges(d);
    const uint64_t k = horizon >= n ? n : horizon + 1;
    const SimDuration run = d * static_cast<SimDuration>(k);
    Attribute(cat, run);
    PayAndAdvance(run);
    n -= k;
  }
}

void SimKernel::PayAndAdvance(SimDuration d) {
  const SimDuration total = d + interrupt_debt_;

  // Pay the interrupt debt: move its per-category breakdown into the ledger.
  if (interrupt_debt_ > 0) {
    for (size_t i = 0; i < kChargeCatCount; ++i) {
      if (debt_by_cat_[i] != 0) {
        Attribute(static_cast<ChargeCat>(i), debt_by_cat_[i]);
        debt_by_cat_[i] = 0;
      }
    }
  }
  interrupt_debt_ = 0;

  if (total <= 0) {
    return;
  }
  busy_time_ += total;
  if (InSmpWorker()) {
    // A worker's charge moves its local CPU clock; the scheduler decides when
    // the global clock catches up (and which events run in between).
    smp_->OnCharge(total);
    return;
  }
  sim_->AdvanceTo(sim_->now() + total);
}

bool SimKernel::BlockProcess(Process& proc, SimTime deadline) {
  bool woken;
  if (InSmpWorker()) {
    // Yield this worker's CPU; the scheduler runs other workers (and the
    // simulator) until the process is woken or the deadline passes.
    woken = smp_->OnBlock(proc, deadline);
  } else {
    woken =
        sim_->StepUntil([this, &proc] { return proc.woken() || stopped_; }, deadline) &&
        proc.woken();
  }
  proc.ClearWake();
  // Interrupt work performed while we were idle was absorbed by idle CPU; it
  // must not be billed to the next busy period (nor attributed).
  if (interrupt_debt_ != 0) {
    for (SimDuration& d : debt_by_cat_) {
      d = 0;
    }
  }
  interrupt_debt_ = 0;
  return woken;
}

void SimKernel::QueueRtSignal(Process& proc, const SigInfo& si) {
  ChargeDebt(kCostModel.rt_signal_enqueue, ChargeCat::kSignalEnqueue);
  if (fault_ != nullptr) {
    // A fault window may shrink the effective queue: signals beyond the
    // forced cap are shed exactly as a real overflow would shed them, which
    // drives the early-SIGIO recovery path on demand.
    if (std::optional<size_t> cap = fault_->RtQueueCap();
        cap.has_value() && proc.rt_queue_length() >= *cap) {
      fault_->CountShedSignal();
      ++stats_.rt_signals_dropped;
      ++stats_.rt_queue_overflows;
      proc.RaiseSigIo();
      TraceInstant(TraceEventType::kSignal, "rt_shed", si.fd,
                   static_cast<int32_t>(proc.rt_queue_length()));
      return;
    }
  }
  if (proc.QueueSignal(si)) {
    ++stats_.rt_signals_queued;
    TraceInstant(TraceEventType::kSignal, "rt_queued", si.fd,
                 static_cast<int32_t>(proc.rt_queue_length()));
  } else {
    ++stats_.rt_signals_dropped;
    ++stats_.rt_queue_overflows;
    TraceInstant(TraceEventType::kSignal, "rt_overflow", si.fd,
                 static_cast<int32_t>(proc.rt_queue_length()));
  }
}

}  // namespace scio
