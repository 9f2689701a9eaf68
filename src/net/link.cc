#include "src/net/link.h"

#include <algorithm>

#include "src/fault/fault_plane.h"

namespace scio {

void Link::Transmit(size_t bytes, EventCallback&& deliver) {
  const SimTime start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  const auto tx_time =
      static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 * 1e9 / bandwidth_bps_);
  busy_until_ = start + tx_time;
  bytes_carried_ += bytes;

  SimTime arrival = busy_until_ + latency_;
  if (fault_ != nullptr) {
    const FaultPlane::TransmitFault hit = fault_->OnTransmit(toward_server_);
    arrival += hit.extra_delay;
    if (hit.lost) {
      // The reliable pipe has no retransmission machinery, so a "lost" frame
      // is delivered late by the window's penalty instead of being dropped.
      arrival += hit.loss_penalty;
    }
    if (hit.hold_until > 0) {
      // Link flap: the frame sits in the queue until the link comes back,
      // then still needs one propagation delay to cross.
      arrival = std::max(arrival, hit.hold_until + latency_);
    }
  }
  // TCP delivers in order: a delayed frame head-of-line blocks everything
  // behind it, so no frame may overtake an earlier one.
  arrival = std::max(arrival, last_arrival_);
  last_arrival_ = arrival;
  sim_->ScheduleAt(arrival, std::move(deliver));
}

bool Link::TransmitSegment(size_t bytes, SimDuration extra_delay,
                           EventCallback&& deliver) {
  const SimTime start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  const auto tx_time =
      static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 * 1e9 / bandwidth_bps_);
  busy_until_ = start + tx_time;
  bytes_carried_ += bytes;

  SimTime arrival = busy_until_ + latency_ + extra_delay;
  if (fault_ != nullptr) {
    const FaultPlane::TransmitFault hit = fault_->OnTransmit(toward_server_);
    if (hit.lost) {
      // The wire time is already spent; the frame just never arrives. The
      // transport plane's retransmit queue takes it from here.
      return false;
    }
    arrival += hit.extra_delay;
    if (hit.hold_until > 0) {
      arrival = std::max(arrival, hit.hold_until + latency_);
    }
  }
  arrival = std::max(arrival, last_arrival_);
  last_arrival_ = arrival;
  sim_->ScheduleAt(arrival, std::move(deliver));
  return true;
}

}  // namespace scio
