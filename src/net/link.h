// A unidirectional network link with finite bandwidth and fixed latency.
//
// The paper's testbed is two hosts on a 100 Mbit/s Ethernet switch; each
// direction is modelled as one Link. Transmissions serialize FIFO: a frame
// starts when the link finishes the previous one, takes bytes*8/bandwidth to
// clock out, and arrives one propagation latency later. At the paper's peak
// (~1000 replies/s of 6 KB documents ≈ 48 Mbit/s) the link runs near half
// utilization, so queueing here is a minor but real effect.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>

#include "src/sim/event_callback.h"
#include "src/sim/simulator.h"

namespace scio {

class FaultPlane;

class Link {
 public:
  Link(Simulator* sim, double bandwidth_bps, SimDuration latency)
      : sim_(sim), bandwidth_bps_(bandwidth_bps), latency_(latency) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Queue `bytes` for transmission; `deliver` runs at the arrival time.
  // EventCallback stores small captures inline, so delivery scheduling does
  // not allocate once the event pool has warmed up, and it is passed by
  // rvalue reference down to the event queue, which moves it once.
  void Transmit(size_t bytes, EventCallback&& deliver);

  // Transport-plane variant: a kPacketLoss fault hit DROPS the frame instead
  // of delaying it (the frame still occupies the wire — bandwidth is spent
  // either way). Returns false on a drop, in which case `deliver` never runs
  // and the caller's retransmission machinery repairs the stream.
  // `extra_delay` adds seeded one-way jitter to the arrival time; in-order
  // delivery is still enforced, so jitter stretches RTT without reordering.
  bool TransmitSegment(size_t bytes, SimDuration extra_delay, EventCallback&& deliver);

  // Subject this link to a fault schedule (loss, latency spikes, flaps).
  // `toward_server` tells the plane which direction this link carries.
  void InstallFaultPlane(FaultPlane* plane, bool toward_server) {
    fault_ = plane;
    toward_server_ = toward_server;
  }

  SimTime busy_until() const { return busy_until_; }
  uint64_t bytes_carried() const { return bytes_carried_; }
  SimDuration latency() const { return latency_; }

 private:
  Simulator* sim_;
  double bandwidth_bps_;
  SimDuration latency_;
  SimTime busy_until_ = 0;
  SimTime last_arrival_ = 0;  // enforces in-order delivery under faults
  uint64_t bytes_carried_ = 0;
  FaultPlane* fault_ = nullptr;
  bool toward_server_ = false;
};

}  // namespace scio

#endif  // SRC_NET_LINK_H_
