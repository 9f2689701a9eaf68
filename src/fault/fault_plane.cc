#include "src/fault/fault_plane.h"

namespace scio {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAcceptEmfile:
      return "accept-emfile";
    case FaultKind::kOpenEmfile:
      return "open-emfile";
    case FaultKind::kInterestEnomem:
      return "interest-enomem";
    case FaultKind::kEintr:
      return "eintr";
    case FaultKind::kRtQueueShrink:
      return "rt-queue-shrink";
    case FaultKind::kPacketLoss:
      return "packet-loss";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kLinkFlap:
      return "link-flap";
  }
  return "unknown";
}

std::vector<std::pair<std::string, uint64_t>> FaultStats::ToRows() const {
  return {
      {"fault.accept_emfile_injected", accept_emfile_injected},
      {"fault.open_emfile_injected", open_emfile_injected},
      {"fault.interest_enomem_injected", interest_enomem_injected},
      {"fault.eintr_injected", eintr_injected},
      {"fault.rt_signals_shed", rt_signals_shed},
      {"fault.packets_lost", packets_lost},
      {"fault.packets_spiked", packets_spiked},
      {"fault.packets_flap_held", packets_flap_held},
  };
}

FaultPlane::FaultPlane(Simulator* sim, FaultSchedule schedule)
    : sim_(sim), schedule_(std::move(schedule)), rng_(schedule_.seed) {}

const FaultWindow* FaultPlane::ActiveWindow(FaultKind kind, LinkDir dir) const {
  const SimTime now = sim_->now();
  for (const FaultWindow& window : schedule_.windows) {
    if (window.kind != kind || now < window.start || now >= window.end) {
      continue;
    }
    if (dir != LinkDir::kBoth && window.dir != LinkDir::kBoth && window.dir != dir) {
      continue;
    }
    return &window;
  }
  return nullptr;
}

bool FaultPlane::Roll(const FaultWindow* window) {
  if (window == nullptr) {
    return false;
  }
  // The RNG is only consumed inside an active window, so an empty or
  // never-matching schedule is a pure no-op and perturbs nothing.
  if (window->probability >= 1.0) {
    return true;
  }
  return rng_.Bernoulli(window->probability);
}

bool FaultPlane::InjectAcceptEmfile() {
  if (Roll(ActiveWindow(FaultKind::kAcceptEmfile))) {
    ++stats_.accept_emfile_injected;
    RecordInjection("fault_accept_emfile");
    return true;
  }
  return false;
}

bool FaultPlane::InjectOpenEmfile() {
  if (Roll(ActiveWindow(FaultKind::kOpenEmfile))) {
    ++stats_.open_emfile_injected;
    RecordInjection("fault_open_emfile");
    return true;
  }
  return false;
}

bool FaultPlane::InjectInterestEnomem() {
  if (Roll(ActiveWindow(FaultKind::kInterestEnomem))) {
    ++stats_.interest_enomem_injected;
    RecordInjection("fault_interest_enomem");
    return true;
  }
  return false;
}

bool FaultPlane::InjectEintr() {
  if (Roll(ActiveWindow(FaultKind::kEintr))) {
    ++stats_.eintr_injected;
    RecordInjection("fault_eintr");
    return true;
  }
  return false;
}

std::optional<size_t> FaultPlane::RtQueueCap() const {
  const FaultWindow* window = ActiveWindow(FaultKind::kRtQueueShrink);
  if (window == nullptr || window->magnitude < 0) {
    return std::nullopt;
  }
  return static_cast<size_t>(window->magnitude);
}

FaultPlane::TransmitFault FaultPlane::OnTransmit(bool toward_server) {
  TransmitFault fault;
  const LinkDir dir = toward_server ? LinkDir::kToServer : LinkDir::kToClient;

  if (const FaultWindow* spike = ActiveWindow(FaultKind::kLatencySpike, dir);
      Roll(spike)) {
    fault.extra_delay += static_cast<SimDuration>(spike->magnitude);
    ++stats_.packets_spiked;
    RecordInjection("fault_latency_spike",
                    static_cast<int32_t>(spike->magnitude));
  }
  if (const FaultWindow* loss = ActiveWindow(FaultKind::kPacketLoss, dir);
      Roll(loss)) {
    // Two consumers: the legacy reliable-pipe path (Link::Transmit) delivers
    // the frame late by `loss_penalty` — in-order delivery keeps the byte
    // stream intact, which is TCP's contract under loss. The transport plane
    // (Link::TransmitSegment) drops the frame instead, and its own
    // retransmission machinery repairs the stream.
    fault.lost = true;
    fault.loss_penalty = static_cast<SimDuration>(loss->magnitude);
    ++stats_.packets_lost;
    RecordInjection("fault_packet_loss");
  }
  if (const FaultWindow* flap = ActiveWindow(FaultKind::kLinkFlap, dir)) {
    // Link down: traffic is queued and released when the window closes.
    fault.hold_until = flap->end;
    ++stats_.packets_flap_held;
    RecordInjection("fault_link_flap_hold");
  }
  return fault;
}

}  // namespace scio
