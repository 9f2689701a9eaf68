#include "src/kernel/sim_kernel.h"

namespace scio {

Process& SimKernel::CreateProcess(std::string name, int max_fds) {
  processes_.push_back(std::make_unique<Process>(std::move(name), max_fds));
  processes_.back()->set_mem_ledger(&mem_);
  return *processes_.back();
}

void SimKernel::Charge(std::initializer_list<ChargeItem> items) {
  SimDuration raw = 0;
  for (const ChargeItem& item : items) {
    raw += item.d;
  }
  // One charge of the summed duration — the clock motion is identical to the
  // pre-attribution implementation, so seeded runs stay bit-identical.
  const SimDuration scaled = Scaled(raw);

  // Attribute the process-context part per item. Each item is scaled
  // individually; the rounding remainder (only possible with a fractional
  // cpu_scale) lands on the last item so the ledger sums to exactly `scaled`.
  SimDuration attributed = 0;
  const ChargeItem* last = nullptr;
  for (const ChargeItem& item : items) {
    const SimDuration part = Scaled(item.d);
    Attribute(item.cat, part);
    attributed += part;
    last = &item;
  }
  if (last != nullptr) {
    Attribute(last->cat, scaled - attributed);
  }
  PayAndAdvance(scaled);
}

uint64_t SimKernel::DeferrableCharges(SimDuration d) {
  if (InSmpWorker()) {
    return 0;  // every worker charge is a scheduling point
  }
  const SimTime next = sim_->queue().NextTime();
  const SimTime start = sim_->now() + interrupt_debt_;
  if (next <= start) {
    return 0;
  }
  const SimDuration unit = Scaled(d);
  if (next == kSimTimeNever || unit <= 0) {
    return UINT64_MAX;
  }
  // Largest j with start + j·unit < next.
  return static_cast<uint64_t>((next - start - 1) / unit);
}

void SimKernel::ChargeRepeated(SimDuration d, ChargeCat cat, uint64_t n) {
  const SimDuration unit = Scaled(d);
  while (n > 0) {
    // Units within the horizon run no event; the one after it may, at its
    // end, exactly as its own Charge() would. A longer run is split there.
    // A single unit is one Charge() and needs no horizon.
    const uint64_t horizon = n == 1 ? 0 : DeferrableCharges(d);
    const uint64_t k = horizon >= n ? n : horizon + 1;
    const SimDuration scaled = unit * static_cast<SimDuration>(k);
    Attribute(cat, scaled);
    PayAndAdvance(scaled);
    n -= k;
  }
}

void SimKernel::PayAndAdvance(SimDuration scaled) {
  const SimDuration total = scaled + interrupt_debt_;

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
  ChargeDebt(cost_.rt_signal_enqueue, ChargeCat::kSignalEnqueue);
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
