#include "src/transport/transport_plane.h"

#include <algorithm>
#include <cassert>

#include "src/net/filter_chain.h"
#include "src/net/socket.h"

namespace scio {

namespace {

// Serial-number arithmetic (RFC 1982): the 4 GB sequence space wraps, so
// ordering is defined by the sign of the 32-bit difference.
inline bool SeqLt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
inline bool SeqLe(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}
inline bool SeqGt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) > 0;
}
inline bool SeqGe(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) >= 0;
}

}  // namespace

std::vector<std::pair<std::string, uint64_t>> TransportStats::ToRows() const {
  return {
      {"transport.blocks_attached", blocks_attached},
      {"transport.blocks_released", blocks_released},
      {"transport.attach_failed", attach_failed},
      {"transport.hot_activations", hot_activations},
      {"transport.hot_releases", hot_releases},
      {"transport.segments_sent", segments_sent},
      {"transport.segments_retransmitted", segments_retransmitted},
      {"transport.segments_dropped", segments_dropped},
      {"transport.segments_dropped_filter", segments_dropped_filter},
      {"transport.segments_stale", segments_stale},
      {"transport.dup_segments", dup_segments},
      {"transport.ooo_buffered", ooo_buffered},
      {"transport.acks_sent", acks_sent},
      {"transport.acks_received", acks_received},
      {"transport.rtt_samples", rtt_samples},
      {"transport.fast_retransmit_entries", fast_retransmit_entries},
      {"transport.rack_marked_lost", rack_marked_lost},
      {"transport.tlp_probes", tlp_probes},
      {"transport.rto_fires", rto_fires},
      {"transport.send_blocked_no_slab", send_blocked_no_slab},
      {"transport.fins_sent", fins_sent},
      {"transport.orphans_abandoned", orphans_abandoned},
  };
}

std::string TransportStats::Signature() const {
  std::string sig;
  for (const auto& [name, value] : ToRows()) {
    sig += name;
    sig += '=';
    sig += std::to_string(value);
    sig += ';';
  }
  return sig;
}

TransportPlane::TransportPlane(SimKernel* kernel, NetStack* net,
                               TransportConfig config)
    : kernel_(kernel), net_(net), config_(config), rng_(config.seed) {
  for (Side* s : {&srv_, &cli_}) {
    s->conns.set_limit(config_.max_connections);
    s->hot.set_limit(config_.max_connections);
    s->segs.set_limit(config_.max_segments);
  }
  // Only the server machine's memory is on the ledger; the client mirror is
  // out of scope, exactly as client CPU is never charged.
  srv_.conns.set_mem_ledger(&kernel_->mem(), MemSys::kTransport);
  srv_.hot.set_mem_ledger(&kernel_->mem(), MemSys::kTransport);
  srv_.segs.set_mem_ledger(&kernel_->mem(), MemSys::kTransport);
  net_->set_transport(this);
}

TransportPlane::~TransportPlane() {
  for (Side* s : {&srv_, &cli_}) {
    s->hot.ForEach([](size_t, TcpHot& h) {
      h.rto_timer.Cancel();
      h.loss_timer.Cancel();
      h.pace_timer.Cancel();
    });
    // Detach every still-wired socket so its destructor does not call back
    // into a dead plane. Sockets can outlive the plane (shared_ptrs held by
    // fd tables die with the kernel, declared before the plane in benches).
    s->conns.ForEach([s](size_t i, TcpConn&) {
      if (SimSocket* sock = s->socks[i]; sock != nullptr) {
        sock->WireTransport(nullptr, -1);
      }
    });
  }
  if (net_->transport() == this) {
    net_->set_transport(nullptr);
  }
  kernel_->mem().Sub(MemSys::kTransport, srv_sidecar_ledgered_);
  srv_sidecar_ledgered_ = 0;
}

size_t TransportPlane::tracked_bytes() const {
  return srv_.conns.tracked_bytes() + srv_.hot.tracked_bytes() +
         srv_.segs.tracked_bytes() + srv_sidecar_ledgered_;
}

void TransportPlane::GrowSidecar(bool server, size_t need) {
  Side& s = side(server);
  if (s.socks.size() < need) {
    s.socks.resize(need, nullptr);
  }
  if (server) {
    const size_t bytes = s.socks.capacity() * sizeof(SimSocket*);
    if (bytes > srv_sidecar_ledgered_) {
      kernel_->mem().Add(MemSys::kTransport, bytes - srv_sidecar_ledgered_);
      srv_sidecar_ledgered_ = bytes;
    }
  }
}

void TransportPlane::Attach(SimSocket* sock) {
  Side& s = side(sock->server_side());
  const long idx = s.conns.AllocateLowest();
  if (idx < 0) {
    // Cold slab full: the socket simply runs the legacy reliable-pipe path.
    ++stats_.attach_failed;
    return;
  }
  TcpConn& c = s.conns.At(idx);
  c = TcpConn{};
  c.set_cc_kind(config_.default_cc);
  GrowSidecar(sock->server_side(), static_cast<size_t>(idx) + 1);
  s.socks[idx] = sock;
  sock->WireTransport(this, static_cast<int32_t>(idx));
  ++stats_.blocks_attached;
}

void TransportPlane::SetCcKind(SimSocket* sock, CcKind kind) {
  if (sock == nullptr || sock->transport() != this) {
    return;
  }
  Side& s = side(sock->server_side());
  const int32_t ci = sock->transport_index();
  if (ci < 0 || !s.conns.Contains(ci)) {
    return;
  }
  s.conns.At(ci).set_cc_kind(kind);
}

TcpHot& TransportPlane::EnsureHot(Side& s, TcpConn& c) {
  if (c.hot != kNilIndex) {
    return s.hot.At(c.hot);
  }
  const long hi = s.hot.AllocateLowest();
  // Hot blocks only exist for live cold blocks and both slabs share a limit,
  // so allocation cannot fail here.
  assert(hi >= 0 && "hot slab exhausted with cold blocks live");
  TcpHot& h = s.hot.At(hi);
  // AllocateLowest parks objects without resetting them: clear every field,
  // keeping container capacity (deque / map nodes) for reuse.
  h.rto_timer.Cancel();
  h.loss_timer.Cancel();
  h.pace_timer.Cancel();
  h.peer_idx = kNilIndex;
  h.peer_gen = 0;
  h.peer_server = false;
  h.peer_known = false;
  h.rtx_head = h.rtx_tail = kNilIndex;
  h.rtx_count = 0;
  h.sacked_bytes = 0;
  h.lost_bytes = 0;
  h.dupacks = 0;
  h.recover_seq = 0;
  h.cwnd_acc = 0;
  h.in_recovery = false;
  h.tlp_out = false;
  h.backlog.clear();
  h.backlog_bytes = 0;
  h.delivered = 0;
  h.delivered_time = 0;
  h.next_round_delivered = 0;
  h.round_count = 0;
  h.btlbw_round = 0;
  h.btlbw_Bps = 0;
  h.full_bw = 0;
  h.full_bw_cnt = 0;
  h.bbr_mode = 0;
  h.cycle_idx = 0;
  h.min_rtt_us = 0;
  h.min_rtt_stamp = 0;
  h.cycle_stamp = 0;
  h.pace_next = 0;
  h.pace_armed = false;
  h.rack_mstamp = 0;
  h.loss_armed = false;
  h.tlp_armed = false;
  h.rto_armed = false;
  h.ooo.clear();
  h.ooo_bytes = 0;
  h.fin_rcvd = false;
  h.fin_seq = 0;
  c.hot = static_cast<int32_t>(hi);
  ++stats_.hot_activations;
  return h;
}

bool TransportPlane::ResolvePeer(TcpHot& h, SimSocket* sock) {
  if (h.peer_known) {
    return true;
  }
  if (sock == nullptr) {
    return false;
  }
  std::shared_ptr<SimSocket> p = sock->peer();
  if (p == nullptr || p->transport() != this || p->transport_index() < 0) {
    return false;
  }
  h.peer_server = p->server_side();
  h.peer_idx = p->transport_index();
  h.peer_gen = side(h.peer_server).conns.generation(h.peer_idx);
  h.peer_known = true;
  return true;
}

void TransportPlane::Send(SimSocket* sock, Chunk chunk) {
  const bool server = sock->server_side();
  Side& s = side(server);
  const int32_t ci = sock->transport_index();
  if (ci < 0 || !s.conns.Contains(ci)) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  TcpHot& h = EnsureHot(s, c);
  h.backlog_bytes += chunk.size();
  h.backlog.push_back(std::move(chunk));
  Pump(server, ci);
}

void TransportPlane::CarveSegment(TcpHot& h, TxSeg& seg, uint32_t budget) {
  uint32_t want = std::min(budget, kTcpMss);
  seg.payload = Chunk{};
  while (want > 0 && !h.backlog.empty()) {
    Chunk& front = h.backlog.front();
    const size_t from_data = std::min<size_t>(want, front.data.size());
    if (from_data > 0 && seg.payload.synthetic > 0) {
      // Never queue real bytes behind synthetic ones inside one segment:
      // reassembly appends in segment order and Read() drains data-first, so
      // a mixed segment would reorder the byte stream.
      break;
    }
    if (from_data > 0) {
      seg.payload.data.append(front.data, 0, from_data);
      front.data.erase(0, from_data);
      want -= static_cast<uint32_t>(from_data);
    }
    const size_t from_synth = std::min<size_t>(want, front.synthetic);
    front.synthetic -= from_synth;
    seg.payload.synthetic += from_synth;
    want -= static_cast<uint32_t>(from_synth);
    if (front.size() == 0) {
      h.backlog.pop_front();
    }
  }
  seg.len = static_cast<uint32_t>(seg.payload.size());
  h.backlog_bytes -= seg.len;
}

// sciolint: hotpath
void TransportPlane::Pump(bool server, int32_t ci) {
  Side& s = side(server);
  if (!s.conns.Contains(ci)) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;
  }
  TcpHot& h = s.hot.At(c.hot);
  if (!ResolvePeer(h, s.socks[ci])) {
    return;
  }
  CongestionControl* cc = GetCongestionControl(c.cc_kind());
  const uint32_t cwnd_bytes = static_cast<uint32_t>(c.cwnd_mss) * kTcpMss;

  // Phase 1: repair. Segments the scoreboard marked lost go out first; the
  // head of line may always be retransmitted even with the window full, or a
  // zero-window recovery would deadlock.
  for (int32_t si = h.rtx_head; si != kNilIndex;) {
    TxSeg& seg = s.segs.At(si);
    const int32_t next = seg.next;
    if (seg.lost && !seg.sacked) {
      if (Pipe(c, h) + kTcpMss > cwnd_bytes && seg.seq != c.snd_una) {
        break;
      }
      RetransmitSeg(server, ci, c, h, si);
    }
    si = next;
  }

  // Phase 2: new data, window- and pacing-clocked.
  const double pace = cc->PacingBytesPerSec(c, h);
  while (h.backlog_bytes > 0) {
    if (Pipe(c, h) >= cwnd_bytes) {
      break;
    }
    if (pace > 0 && kernel_->now() < h.pace_next) {
      ArmPace(server, ci, h, h.pace_next);
      break;
    }
    const long si = s.segs.AllocateLowest();
    if (si < 0) {
      ++stats_.send_blocked_no_slab;
      if (h.rtx_count == 0) {
        // Nothing in flight to ACK-clock a retry: poll the slab on a short
        // timer instead of wedging the connection.
        ArmPace(server, ci, h, kernel_->now() + Millis(1));
      }
      break;
    }
    TxSeg& seg = s.segs.At(si);
    seg.seq = c.snd_nxt;
    seg.prev = h.rtx_tail;
    seg.next = kNilIndex;
    seg.retx = 0;
    seg.sacked = false;
    seg.lost = false;
    seg.app_limited = false;
    CarveSegment(h, seg, kTcpMss);
    seg.app_limited = h.backlog_bytes == 0;
    if (h.rtx_tail != kNilIndex) {
      s.segs.At(h.rtx_tail).next = static_cast<int32_t>(si);
    }
    h.rtx_tail = static_cast<int32_t>(si);
    if (h.rtx_head == kNilIndex) {
      h.rtx_head = static_cast<int32_t>(si);
    }
    ++h.rtx_count;
    c.snd_nxt += seg.len;
    TransmitSeg(server, ci, c, h, static_cast<int32_t>(si));
    if (pace > 0) {
      h.pace_next = std::max(kernel_->now(), h.pace_next) +
                    static_cast<SimDuration>(static_cast<double>(seg.len) /
                                             pace * 1e9);
    }
  }

  ArmRto(server, ci, c, h);
  if (cc->TimeBasedRecovery()) {
    ArmTlp(server, ci, c, h);
  }
  MaybeQuiesce(server, ci);
}

void TransportPlane::TransmitSeg(bool server, int32_t ci, TcpConn& /*c*/,
                                 TcpHot& h, int32_t si) {
  Side& s = side(server);
  TxSeg& seg = s.segs.At(si);
  const SimTime now = kernel_->now();
  seg.tx_time = now;
  seg.delivered_at_tx = h.delivered;
  seg.delivered_time_at_tx = h.delivered_time != 0 ? h.delivered_time : now;
  if (seg.retx == 0) {
    seg.first_tx = now;
    ++stats_.segments_sent;
    if (server) {
      kernel_->ChargeDebt(kernel_->cost().tcp_segment_cost,
                          ChargeCat::kTcpSegment);
    }
  }
  // Draw jitter before any drop decision so the jitter stream — and with it
  // every surviving segment's arrival time — does not depend on where losses
  // land.
  SimDuration jitter = 0;
  if (config_.delivery_jitter > 0) {
    jitter = rng_.UniformInt(0, config_.delivery_jitter);
  }
  if (loss_hook_ && loss_hook_(server, seg.seq, seg.retx)) {
    ++stats_.segments_dropped;
    return;
  }
  const bool ps = h.peer_server;
  const int32_t pi = h.peer_idx;
  const uint32_t pg = h.peer_gen;
  const uint32_t sgen = s.conns.generation(ci);
  const uint32_t seq = seg.seq;
  Chunk payload = seg.payload;  // copy: the original stays queued for repair
  const bool ok = net_->LinkFor(ps).TransmitSegment(
      seg.len + kTcpHeaderBytes, jitter,
      [this, ps, pi, pg, server, ci, sgen, seq,
       payload = std::move(payload)]() mutable {
        OnDataSegment(ps, pi, pg, server, ci, sgen, seq, std::move(payload));
      });
  if (!ok) {
    ++stats_.segments_dropped;  // the fault plane ate the frame
  }
}

void TransportPlane::RetransmitSeg(bool server, int32_t ci, TcpConn& c,
                                   TcpHot& h, int32_t si) {
  Side& s = side(server);
  TxSeg& seg = s.segs.At(si);
  seg.lost = false;
  h.lost_bytes -= seg.len;
  ++seg.retx;
  ++stats_.segments_retransmitted;
  if (server) {
    kernel_->ChargeDebt(kernel_->cost().tcp_segment_cost +
                            kernel_->cost().tcp_retransmit_extra,
                        ChargeCat::kTcpRetransmit);
  }
  TransmitSeg(server, ci, c, h, si);
}

void TransportPlane::OnDataSegment(bool rcv_server, int32_t ri, uint32_t rgen,
                                   bool snd_server, int32_t si, uint32_t sgen,
                                   uint32_t seq, Chunk chunk) {
  Side& r = side(rcv_server);
  if (!r.conns.Contains(ri) || r.conns.generation(ri) != rgen ||
      r.socks[ri] == nullptr) {
    ++stats_.segments_stale;
    return;
  }
  SimSocket* rsock = r.socks[ri];
  if (rcv_server) {
    // Interrupt parity with the legacy DeliverChunk path: every arriving
    // data segment costs an interrupt, then traverses the ingress filter.
    ++kernel_->stats().packets_delivered;
    ++kernel_->stats().interrupts;
    kernel_->ChargeDebt(kernel_->cost().interrupt_per_packet,
                        ChargeCat::kInterrupt);
    IngressFilterChain* filter = net_->filter();
    if (filter != nullptr &&
        filter->EvalPacket(rsock->remote_port()) == FilterVerdict::kDrop) {
      // No payload, no ACK: the sender retransmits into the filter until its
      // orphan/RTO bounds give up — dropped means dropped.
      ++stats_.segments_dropped_filter;
      return;
    }
  }
  TcpConn& rc = r.conns.At(ri);
  const uint32_t len = static_cast<uint32_t>(chunk.size());
  // Highest cumulative ACK this arrival justifies, tracked outside the block
  // so the ACK survives the delivery callback tearing the receiver down.
  uint32_t ack_seq = rc.rcv_nxt;
  if (SeqLe(seq + len, rc.rcv_nxt)) {
    ++stats_.dup_segments;  // spurious retransmission; re-ACK below
  } else if (seq == rc.rcv_nxt) {
    rc.rcv_nxt += len;
    ack_seq = rc.rcv_nxt;
    rsock->AcceptTransportBytes(std::move(chunk));
    // on_data may have closed or released anything: re-validate every lap,
    // then drain whatever out-of-order run became contiguous.
    while (r.conns.Contains(ri) && r.conns.generation(ri) == rgen) {
      TcpConn& rc2 = r.conns.At(ri);
      if (rc2.hot == kNilIndex) {
        break;
      }
      TcpHot& rh = r.hot.At(rc2.hot);
      auto it = rh.ooo.begin();
      if (it == rh.ooo.end() || SeqGt(it->first, rc2.rcv_nxt)) {
        // A parked FIN becomes deliverable once the stream reaches it.
        if (rh.fin_rcvd && SeqGe(rc2.rcv_nxt, rh.fin_seq)) {
          rh.fin_rcvd = false;
          if (SimSocket* sk = r.socks[ri]; sk != nullptr) {
            sk->DeliverEof();
          }
        }
        break;
      }
      const uint32_t nseq = it->first;
      Chunk next = std::move(it->second);
      const uint32_t nlen = static_cast<uint32_t>(next.size());
      rh.ooo.erase(it);
      rh.ooo_bytes -= nlen;
      if (SeqLe(nseq + nlen, rc2.rcv_nxt)) {
        ++stats_.dup_segments;  // duplicate that was parked out of order
        continue;
      }
      rc2.rcv_nxt = nseq + nlen;
      ack_seq = rc2.rcv_nxt;
      if (SimSocket* sk = r.socks[ri]; sk != nullptr) {
        sk->AcceptTransportBytes(std::move(next));
      }
    }
  } else {
    // Hole ahead of us: park the segment for SACK + later reassembly.
    TcpHot& rh = EnsureHot(r, rc);
    auto [it, inserted] = rh.ooo.try_emplace(seq, std::move(chunk));
    (void)it;
    if (inserted) {
      rh.ooo_bytes += len;
      ++stats_.ooo_buffered;
    } else {
      ++stats_.dup_segments;
    }
  }
  // Delivery callbacks may have torn the block down (an HTTP client that
  // received its content-length worth closes on the spot); re-validate, then
  // ACK. TCP acks received data regardless of what the application does with
  // it, so a dead receiver still sends the final cumulative ACK — without it
  // the sender can never drain, never FINs, and RTOs an orphan until the
  // backoff limit.
  if (r.conns.Contains(ri) && r.conns.generation(ri) == rgen) {
    SendAck(rcv_server, r.conns.At(ri), snd_server, si, sgen);
    MaybeQuiesce(rcv_server, ri);
    return;
  }
  if (rcv_server) {
    kernel_->ChargeDebt(kernel_->cost().tcp_ack_generate, ChargeCat::kTcpAck);
  }
  ++stats_.acks_sent;
  net_->LinkFor(snd_server)
      .Transmit(kTcpHeaderBytes, [this, snd_server, si, sgen, ack_seq]() {
        OnAckPacket(snd_server, si, sgen, ack_seq, {}, {}, 0);
      });
}

void TransportPlane::SendAck(bool rcv_server, TcpConn& rc, bool snd_server,
                             int32_t si, uint32_t sgen) {
  if (rcv_server) {
    kernel_->ChargeDebt(kernel_->cost().tcp_ack_generate, ChargeCat::kTcpAck);
  }
  ++stats_.acks_sent;
  std::array<uint32_t, 3> start{};
  std::array<uint32_t, 3> end{};
  uint8_t n = 0;
  if (rc.hot != kNilIndex) {
    // Up to three SACK ranges, merged while contiguous (the map is seq
    // ordered). The extension check runs before the capacity check so a run
    // touching the third range still grows it.
    const TcpHot& rh = side(rcv_server).hot.At(rc.hot);
    for (const auto& [seq, chunk] : rh.ooo) {
      const uint32_t len = static_cast<uint32_t>(chunk.size());
      if (n > 0 && seq == end[n - 1]) {
        end[n - 1] = seq + len;
        continue;
      }
      if (n == 3) {
        break;
      }
      start[n] = seq;
      end[n] = seq + len;
      ++n;
    }
  }
  const uint32_t ack = rc.rcv_nxt;
  net_->LinkFor(snd_server)
      .Transmit(kTcpHeaderBytes, [this, snd_server, si, sgen, ack, start, end,
                                  n]() {
        OnAckPacket(snd_server, si, sgen, ack, start, end, n);
      });
}

// sciolint: hotpath
void TransportPlane::OnAckPacket(bool server, int32_t ci, uint32_t gen,
                                 uint32_t ack,
                                 std::array<uint32_t, 3> sack_start,
                                 std::array<uint32_t, 3> sack_end,
                                 uint8_t sack_count) {
  Side& s = side(server);
  if (!s.conns.Contains(ci) || s.conns.generation(ci) != gen) {
    ++stats_.segments_stale;
    return;
  }
  ++stats_.acks_received;
  if (server) {
    kernel_->ChargeDebt(kernel_->cost().tcp_ack_process, ChargeCat::kTcpAck);
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;  // pure re-ACK after the connection quiesced
  }
  TcpHot& h = s.hot.At(c.hot);
  const SimTime now = kernel_->now();
  const uint32_t newly_acked = SeqGt(ack, c.snd_una) ? ack - c.snd_una : 0;
  uint32_t newly_sacked = 0;
  uint32_t rtt_sample_us = 0;
  double rate_Bps = 0;
  bool rate_app_limited = false;
  bool round_start = false;

  // BBR-style delivery-rate sample from one delivered segment: bytes
  // delivered since it left over the time that took. Called after
  // h.delivered includes the segment itself; the last sample of this ACK
  // wins (the stack's max filter smooths across ACKs).
  auto sample_rate = [&](const TxSeg& seg) {
    if (seg.delivered_at_tx >= h.next_round_delivered) {
      round_start = true;
    }
    const SimDuration el = now - seg.delivered_time_at_tx;
    if (el > 0) {
      rate_Bps = static_cast<double>(h.delivered - seg.delivered_at_tx) *
                 1e9 / static_cast<double>(el);
      rate_app_limited = seg.app_limited;
    }
  };

  if (newly_acked > 0) {
    while (h.rtx_head != kNilIndex) {
      const int32_t head = h.rtx_head;
      TxSeg& seg = s.segs.At(head);
      if (!SeqLe(seg.seq + seg.len, ack)) {
        break;
      }
      if (seg.sacked) {
        h.sacked_bytes -= seg.len;  // already counted delivered at SACK time
      } else {
        h.delivered += seg.len;
      }
      if (seg.lost) {
        h.lost_bytes -= seg.len;
      }
      if (seg.retx == 0) {
        // Karn's rule: only never-retransmitted segments time the path.
        rtt_sample_us = static_cast<uint32_t>(
            std::max<SimDuration>(now - seg.first_tx, Micros(1)) / 1000);
      }
      h.rack_mstamp = std::max(h.rack_mstamp, seg.tx_time);
      sample_rate(seg);
      seg.payload = Chunk{};  // free the heap now, not at slot reuse
      const int32_t next = seg.next;
      if (next != kNilIndex) {
        s.segs.At(next).prev = kNilIndex;
      } else {
        h.rtx_tail = kNilIndex;
      }
      h.rtx_head = next;
      s.segs.ReleaseAt(head);
      --h.rtx_count;
    }
    c.snd_una = ack;
    c.rto_backoff = 0;
    h.delivered_time = now;
  }

  for (uint8_t k = 0; k < sack_count; ++k) {
    const uint32_t sb = sack_start[k];
    const uint32_t se = sack_end[k];
    for (int32_t si = h.rtx_head; si != kNilIndex;) {
      TxSeg& seg = s.segs.At(si);
      const int32_t next = seg.next;
      if (SeqGe(seg.seq, se)) {
        break;
      }
      if (!seg.sacked && SeqGe(seg.seq, sb) &&
          SeqLe(seg.seq + seg.len, se)) {
        seg.sacked = true;
        h.sacked_bytes += seg.len;
        h.delivered += seg.len;
        newly_sacked += seg.len;
        if (seg.lost) {
          seg.lost = false;
          h.lost_bytes -= seg.len;
        }
        h.rack_mstamp = std::max(h.rack_mstamp, seg.tx_time);
        sample_rate(seg);
      }
      si = next;
    }
  }
  if (newly_sacked > 0) {
    h.delivered_time = now;
  }

  if (newly_acked > 0) {
    h.dupacks = 0;
    h.tlp_out = false;
  } else if (c.snd_nxt != c.snd_una) {
    ++h.dupacks;
  }
  if (newly_sacked > 0) {
    h.tlp_out = false;  // the probe drew a SACK; the tail is alive
  }
  if (rtt_sample_us > 0) {
    UpdateRtt(c, rtt_sample_us);
    ++stats_.rtt_samples;
  }
  if (round_start) {
    h.next_round_delivered = h.delivered;
  }

  CongestionControl* cc = GetCongestionControl(c.cc_kind());
  if (cc->TimeBasedRecovery()) {
    RackDetect(server, ci, c, h);
  } else if (!h.in_recovery && h.dupacks >= 3) {
    // Classic fast retransmit: the first unsacked segment is the hole.
    for (int32_t si = h.rtx_head; si != kNilIndex; si = s.segs.At(si).next) {
      TxSeg& seg = s.segs.At(si);
      if (!seg.sacked && !seg.lost) {
        MarkLost(h, seg);
        break;
      }
    }
    EnterRecovery(c, h);
  } else if (!cc->TimeBasedRecovery() && h.in_recovery && newly_acked > 0 &&
             SeqLt(c.snd_una, h.recover_seq)) {
    // NewReno partial ACK: the next hole is lost too; repair it without
    // leaving recovery.
    for (int32_t si = h.rtx_head; si != kNilIndex; si = s.segs.At(si).next) {
      TxSeg& seg = s.segs.At(si);
      if (!seg.sacked && !seg.lost) {
        MarkLost(h, seg);
        break;
      }
    }
  }
  if (h.in_recovery && SeqGe(c.snd_una, h.recover_seq)) {
    h.in_recovery = false;
    cc->OnExitRecovery(c, h);
  }

  CcAck a;
  a.now = now;
  a.newly_acked = newly_acked;
  a.newly_sacked = newly_sacked;
  a.pipe = Pipe(c, h);
  a.rtt_sample_us = rtt_sample_us;
  a.delivery_rate_Bps = rate_Bps;
  a.app_limited = rate_app_limited;
  a.round_start = round_start;
  cc->OnAck(c, h, a);

  if (SimSocket* sock = s.socks[ci]; sock != nullptr && newly_acked > 0) {
    sock->TransportAcked(newly_acked);
  }
  // TransportAcked fires kPollOut readiness, which can re-enter the plane
  // with more writes (or a close); re-validate before the FIN check.
  if (!s.conns.Contains(ci) || s.conns.generation(ci) != gen) {
    return;
  }
  TcpConn& c2 = s.conns.At(ci);
  if (c2.flag(kTpFinPending) && !c2.flag(kTpFinSent) &&
      c2.snd_una == c2.snd_nxt &&
      (c2.hot == kNilIndex || (s.hot.At(c2.hot).backlog_bytes == 0 &&
                               s.hot.At(c2.hot).rtx_count == 0))) {
    if (FinishClose(server, ci)) {
      return;
    }
  }
  Pump(server, ci);
}

void TransportPlane::EnterRecovery(TcpConn& c, TcpHot& h) {
  h.in_recovery = true;
  h.recover_seq = c.snd_nxt;
  ++stats_.fast_retransmit_entries;
  GetCongestionControl(c.cc_kind())->OnEnterRecovery(c, h);
}

void TransportPlane::MarkLost(TcpHot& h, TxSeg& seg) {
  if (seg.lost || seg.sacked) {
    return;
  }
  seg.lost = true;
  h.lost_bytes += seg.len;
}

void TransportPlane::RackDetect(bool server, int32_t ci, TcpConn& c,
                                TcpHot& h) {
  if (h.rack_mstamp == 0) {
    return;  // nothing delivered yet; nothing can be time-ordered lost
  }
  Side& s = side(server);
  const SimTime now = kernel_->now();
  const SimDuration reo_wnd =
      std::max<SimDuration>(Micros(c.srtt_us / 4), Millis(1));
  bool newly_lost = false;
  SimDuration min_wait = 0;
  for (int32_t si = h.rtx_head; si != kNilIndex; si = s.segs.At(si).next) {
    TxSeg& seg = s.segs.At(si);
    if (seg.sacked || seg.lost || seg.tx_time >= h.rack_mstamp) {
      continue;  // delivered, already marked, or sent after the newest ACK
    }
    const SimDuration waited = now - seg.tx_time;
    if (waited >= reo_wnd) {
      MarkLost(h, seg);
      ++stats_.rack_marked_lost;
      newly_lost = true;
    } else {
      const SimDuration remain = reo_wnd - waited;
      if (min_wait == 0 || remain < min_wait) {
        min_wait = remain;
      }
    }
  }
  if (newly_lost && !h.in_recovery) {
    EnterRecovery(c, h);
  }
  if (min_wait > 0) {
    ArmLossRecheck(server, ci, h, min_wait);
  }
}

SimDuration TransportPlane::CurrentRto(const TcpConn& c) const {
  if (c.srtt_us == 0) {
    return std::max<SimDuration>(Seconds(1), config_.min_rto);
  }
  const SimDuration rto =
      Micros(c.srtt_us) + std::max<SimDuration>(4 * Micros(c.rttvar_us),
                                                Millis(1));
  return std::clamp(rto, config_.min_rto, config_.max_rto);
}

void TransportPlane::ArmRto(bool server, int32_t ci, TcpConn& c, TcpHot& h) {
  h.rto_timer.Cancel();
  h.rto_armed = false;
  if (h.rtx_count == 0) {
    return;
  }
  SimDuration rto = CurrentRto(c);
  for (uint8_t i = 0; i < c.rto_backoff && rto < config_.max_rto; ++i) {
    rto *= 2;
  }
  rto = std::min(rto, config_.max_rto);
  const uint32_t gen = side(server).conns.generation(ci);
  h.rto_timer =
      kernel_->sim().ScheduleAfter(rto, [this, server, ci, gen]() {
        OnRtoTimer(server, ci, gen);
      });
  h.rto_armed = true;
}

void TransportPlane::ArmTlp(bool server, int32_t ci, TcpConn& c, TcpHot& h) {
  // A RACK reorder recheck owns the timer; a pending TLP restarts below (the
  // probe timeout is measured from the most recent send or ACK, RFC 8985 §7).
  if ((h.loss_armed && !h.tlp_armed) || h.tlp_out || h.in_recovery ||
      h.rtx_count == 0) {
    return;
  }
  SimDuration delay =
      c.srtt_us > 0
          ? std::max<SimDuration>(2 * Micros(c.srtt_us), config_.min_tlp)
          : 2 * config_.min_rto;
  // The probe is only useful if it beats the retransmission timer (RFC 8985
  // §7.2; Linux substitutes the PTO for the RTO timer outright). At RTTs
  // near half the RTO floor 2*srtt ties with the RTO and the tie goes to
  // whichever timer armed first — undercut the RTO by one probe floor.
  delay = std::max<SimDuration>(std::min(delay, CurrentRto(c) - config_.min_tlp),
                                config_.min_tlp);
  const uint32_t gen = side(server).conns.generation(ci);
  h.loss_timer.Cancel();
  h.loss_timer =
      kernel_->sim().ScheduleAfter(delay, [this, server, ci, gen]() {
        OnLossTimer(server, ci, gen, /*tlp=*/true);
      });
  h.loss_armed = true;
  h.tlp_armed = true;
}

void TransportPlane::ArmLossRecheck(bool server, int32_t ci, TcpHot& h,
                                    SimDuration delay) {
  const uint32_t gen = side(server).conns.generation(ci);
  h.loss_timer.Cancel();
  h.loss_timer =
      kernel_->sim().ScheduleAfter(delay, [this, server, ci, gen]() {
        OnLossTimer(server, ci, gen, /*tlp=*/false);
      });
  h.loss_armed = true;
  h.tlp_armed = false;
}

void TransportPlane::ArmPace(bool server, int32_t ci, TcpHot& h, SimTime at) {
  if (h.pace_armed) {
    return;
  }
  const uint32_t gen = side(server).conns.generation(ci);
  const SimTime when = std::max(at, kernel_->now());
  h.pace_timer = kernel_->sim().ScheduleAt(when, [this, server, ci, gen]() {
    OnPaceTimer(server, ci, gen);
  });
  h.pace_armed = true;
}

void TransportPlane::OnRtoTimer(bool server, int32_t ci, uint32_t gen) {
  Side& s = side(server);
  if (!s.conns.Contains(ci) || s.conns.generation(ci) != gen) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;
  }
  TcpHot& h = s.hot.At(c.hot);
  h.rto_armed = false;
  if (h.rtx_count == 0) {
    return;
  }
  ++stats_.rto_fires;
  if (c.rto_backoff < 12) {
    ++c.rto_backoff;  // exponential backoff, capped at min_rto << 12
  }
  if (s.socks[ci] == nullptr &&
      c.rto_backoff > static_cast<uint8_t>(config_.orphan_rto_limit)) {
    // An orphan (socket destroyed, data never acked) gives up: the peer is
    // not coming back, and the slab slots must not leak.
    ++stats_.orphans_abandoned;
    ReleaseConn(server, ci, nullptr);
    return;
  }
  GetCongestionControl(c.cc_kind())->OnRto(c, h);
  h.in_recovery = true;
  h.recover_seq = c.snd_nxt;
  h.dupacks = 0;
  h.tlp_out = false;
  for (int32_t si = h.rtx_head; si != kNilIndex; si = s.segs.At(si).next) {
    MarkLost(h, s.segs.At(si));  // skips sacked segments
  }
  Pump(server, ci);
}

void TransportPlane::OnLossTimer(bool server, int32_t ci, uint32_t gen,
                                 bool tlp) {
  Side& s = side(server);
  if (!s.conns.Contains(ci) || s.conns.generation(ci) != gen) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;
  }
  TcpHot& h = s.hot.At(c.hot);
  h.loss_armed = false;
  h.tlp_armed = false;
  if (tlp) {
    if (h.tlp_out || h.in_recovery || h.rtx_count == 0) {
      return;
    }
    // Tail-loss probe: resend the newest unsacked segment to draw an ACK or
    // SACK out of the peer, converting an invisible tail loss into a RACK
    // detection two RTTs later instead of a full RTO.
    int32_t si = h.rtx_tail;
    while (si != kNilIndex && s.segs.At(si).sacked) {
      si = s.segs.At(si).prev;
    }
    if (si == kNilIndex) {
      return;
    }
    TxSeg& seg = s.segs.At(si);
    ++seg.retx;
    ++stats_.tlp_probes;
    ++stats_.segments_retransmitted;
    if (server) {
      kernel_->ChargeDebt(kernel_->cost().tcp_segment_cost +
                              kernel_->cost().tcp_retransmit_extra,
                          ChargeCat::kTcpRetransmit);
    }
    h.tlp_out = true;
    TransmitSeg(server, ci, c, h, si);
    ArmRto(server, ci, c, h);
    return;
  }
  RackDetect(server, ci, c, h);
  Pump(server, ci);
}

void TransportPlane::OnPaceTimer(bool server, int32_t ci, uint32_t gen) {
  Side& s = side(server);
  if (!s.conns.Contains(ci) || s.conns.generation(ci) != gen) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;
  }
  s.hot.At(c.hot).pace_armed = false;
  if (server) {
    kernel_->ChargeDebt(kernel_->cost().tcp_pacing_release,
                        ChargeCat::kTcpPacing);
  }
  Pump(server, ci);
}

void TransportPlane::UpdateRtt(TcpConn& c, uint32_t sample_us) {
  if (c.srtt_us == 0) {
    c.srtt_us = sample_us;
    c.rttvar_us =
        static_cast<uint16_t>(std::min<uint32_t>(sample_us / 2, 0xffff));
    return;
  }
  const uint32_t diff = c.srtt_us > sample_us ? c.srtt_us - sample_us
                                              : sample_us - c.srtt_us;
  c.rttvar_us = static_cast<uint16_t>(
      std::min<uint32_t>((3u * c.rttvar_us + diff) / 4, 0xffff));
  c.srtt_us = (7u * c.srtt_us + sample_us) / 8;
}

void TransportPlane::SendFin(bool /*server*/, int32_t /*ci*/, TcpConn& c,
                             TcpHot& h) {
  if (c.flag(kTpFinSent) || !h.peer_known) {
    return;
  }
  c.set_flag(kTpFinSent);
  ++stats_.fins_sent;
  const uint32_t fin_seq = c.snd_nxt;
  const bool ps = h.peer_server;
  const int32_t pi = h.peer_idx;
  const uint32_t pg = h.peer_gen;
  // The FIN rides a legacy (non-droppable) control frame: teardown stays as
  // reliable as the pre-transport model so close()d connections cannot wedge
  // the load generator under loss. Sequencing still holds — the receiver
  // parks the FIN until rcv_nxt reaches fin_seq.
  net_->LinkFor(ps).Transmit(net_->config().control_packet_bytes,
                             [this, ps, pi, pg, fin_seq]() {
                               OnFinSegment(ps, pi, pg, fin_seq);
                             });
}

bool TransportPlane::FinishClose(bool server, int32_t ci) {
  Side& s = side(server);
  TcpConn& c = s.conns.At(ci);
  TcpHot& h = EnsureHot(s, c);
  SimSocket* sock = s.socks[ci];
  if (ResolvePeer(h, sock)) {
    SendFin(server, ci, c, h);
  }
  if (c.flag(kTpClosing)) {
    ReleaseConn(server, ci, sock);
    return true;
  }
  return false;
}

void TransportPlane::OnFinSegment(bool rcv_server, int32_t ri, uint32_t rgen,
                                  uint32_t fin_seq) {
  Side& r = side(rcv_server);
  if (!r.conns.Contains(ri) || r.conns.generation(ri) != rgen) {
    ++stats_.segments_stale;
    return;
  }
  TcpConn& rc = r.conns.At(ri);
  if (SeqGe(rc.rcv_nxt, fin_seq)) {
    // All data before the FIN already delivered; DeliverEof self-charges the
    // interrupt on the server side (legacy parity).
    if (SimSocket* sk = r.socks[ri]; sk != nullptr) {
      sk->DeliverEof();
    }
    return;
  }
  TcpHot& rh = EnsureHot(r, rc);
  rh.fin_rcvd = true;
  rh.fin_seq = fin_seq;
}

void TransportPlane::OnSocketClose(SimSocket* sock) {
  const bool server = sock->server_side();
  Side& s = side(server);
  const int32_t ci = sock->transport_index();
  if (ci < 0 || static_cast<size_t>(ci) >= s.socks.size() ||
      !s.conns.Contains(ci) || s.socks[ci] != sock) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  c.set_flag(kTpFinPending);
  c.set_flag(kTpClosing);
  const bool drained =
      c.snd_una == c.snd_nxt &&
      (c.hot == kNilIndex || (s.hot.At(c.hot).backlog_bytes == 0 &&
                              s.hot.At(c.hot).rtx_count == 0));
  if (drained) {
    FinishClose(server, ci);
  }
  // Otherwise the block lingers past the socket: OnAckPacket launches the
  // FIN and releases the slot once the retransmit queue drains (bounded by
  // the orphan RTO limit if the socket is destroyed meanwhile).
}

void TransportPlane::OnSocketDestroyed(SimSocket* sock) {
  const bool server = sock->server_side();
  Side& s = side(server);
  const int32_t ci = sock->transport_index();
  if (ci < 0 || static_cast<size_t>(ci) >= s.socks.size() ||
      !s.conns.Contains(ci) || s.socks[ci] != sock) {
    return;  // stale index from a reused slot; not ours to touch
  }
  s.socks[ci] = nullptr;
  TcpConn& c = s.conns.At(ci);
  if (!c.flag(kTpClosing)) {
    // Destroyed without close (simulation teardown): drop everything now.
    ReleaseConn(server, ci, nullptr);
  }
  // else: an orphan — keeps retransmitting until acked or the RTO limit.
}

void TransportPlane::ReleaseConn(bool server, int32_t ci, SimSocket* sock) {
  Side& s = side(server);
  TcpConn& c = s.conns.At(ci);
  if (c.hot != kNilIndex) {
    TcpHot& h = s.hot.At(c.hot);
    int32_t si = h.rtx_head;
    while (si != kNilIndex) {
      TxSeg& seg = s.segs.At(si);
      const int32_t next = seg.next;
      seg.payload = Chunk{};
      s.segs.ReleaseAt(si);
      si = next;
    }
    h.rtx_head = h.rtx_tail = kNilIndex;
    h.rtx_count = 0;
    ReleaseHot(s, c);
  }
  if (sock != nullptr) {
    sock->WireTransport(nullptr, -1);
  }
  s.socks[ci] = nullptr;
  s.conns.ReleaseAt(ci);
  ++stats_.blocks_released;
}

void TransportPlane::ReleaseHot(Side& s, TcpConn& c) {
  TcpHot& h = s.hot.At(c.hot);
  h.rto_timer.Cancel();
  h.loss_timer.Cancel();
  h.pace_timer.Cancel();
  h.rto_armed = h.loss_armed = h.tlp_armed = h.pace_armed = false;
  h.backlog.clear();
  h.backlog_bytes = 0;
  h.ooo.clear();
  h.ooo_bytes = 0;
  s.hot.ReleaseAt(c.hot);
  c.hot = kNilIndex;
  ++stats_.hot_releases;
}

void TransportPlane::MaybeQuiesce(bool server, int32_t ci) {
  Side& s = side(server);
  if (!s.conns.Contains(ci)) {
    return;
  }
  TcpConn& c = s.conns.At(ci);
  if (c.hot == kNilIndex) {
    return;
  }
  TcpHot& h = s.hot.At(c.hot);
  if (h.rtx_count == 0 && h.backlog_bytes == 0 && h.ooo.empty() &&
      !h.fin_rcvd && !c.flag(kTpFinPending) && c.snd_una == c.snd_nxt) {
    // Fully idle: give the hot block back; the 28-byte cold block can
    // resurrect it on the next write or out-of-order arrival.
    ReleaseHot(s, c);
  }
}

}  // namespace scio
