// TransportPlane: the opt-in per-connection TCP model.
//
// Implements TcpTransportHook (src/net/transport_hook.h). With a plane
// attached to the NetStack, every socket created at SYN time gets a cold
// TcpConn block; writes are segmented at kTcpMss, clocked out by the
// selected CongestionControl stack, carried by Link::TransmitSegment (where
// a kPacketLoss fault now *drops* the frame), SACK-scoreboarded, and
// repaired by fast retransmit / RACK marking / RTO. Without a plane nothing
// changes and every checked-in baseline stays byte-identical — the same
// opt-in pattern as the SMP plane.
//
// Scoreboard cost: an ACK's work is proportional to what it changes, not to
// the window. Besides the sequence-ordered retransmit queue each connection
// keeps an un-SACKed list (sequence order) and a RACK list (send order), and
// each receiver its out-of-order data as merged runs (tcp_state.h states
// the invariants). SACK marking, the hole searches, RTO marking and the
// tail-loss probe walk the un-SACKed list, RACK detection walks the send
// order only as far as it marks, the repair pass runs only while something
// is marked lost, and an ACK copies its SACK blocks from the first three
// runs. The whole-queue walks these replace survive only in
// CheckScoreboard(), the test oracle.
//
// Memory: the server side's cold blocks, hot blocks, retransmit-segment slab
// and socket-backpointer sidecar are charged to MemSys::kTransport; the
// client machine's mirror structures are not ledgered, just as client CPU is
// never charged. CPU: segmentation, ACK generation/processing, retransmits
// and pacing releases are charged as interrupt-context debt under the
// kTcpSegment/kTcpAck/kTcpRetransmit/kTcpPacing categories — server side
// only.
//
// Socket lifetime: a data segment is delivered, and ACKed, while its
// receiver's socket object exists, whether or not the socket is closed. A
// closed socket that is still held keeps its block until its own data and
// FIN drain, and ACKs what arrives for it meanwhile; once the socket is
// destroyed, segments for it count in segments_stale and get no ACK, so the
// sender retransmits them. Results therefore depend on how long sockets are
// held: the load generator keeps every finished client, socket included,
// until it is destroyed, and releasing finished clients early moves the
// modelled results of lossy runs (transport_test pins both halves).
//
// Determinism: all state lives in paged slabs (deterministic iteration), the
// only RNG is the plane's own seeded jitter stream, and timers resolve
// through (side, slot, generation) routes so stale fires are no-ops. The
// plane must outlive every moment the simulator *runs*; pending callbacks
// that are merely discarded at teardown (Simulator::DiscardPending) are
// harmless.

#ifndef SRC_TRANSPORT_TRANSPORT_PLANE_H_
#define SRC_TRANSPORT_TRANSPORT_PLANE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/paged_slab.h"
#include "src/kernel/sim_kernel.h"
#include "src/net/net_stack.h"
#include "src/net/transport_hook.h"
#include "src/sim/rng.h"
#include "src/transport/congestion_control.h"
#include "src/transport/tcp_state.h"

namespace scio {

struct TransportConfig {
  CcKind default_cc = CcKind::kReno;
  uint64_t seed = 1;
  // Seeded one-way delivery jitter drawn per data segment, U[0, jitter];
  // exercises the RTT estimator. 0 draws nothing (pure no-op).
  SimDuration delivery_jitter = 0;
  size_t max_connections = 1 << 20;
};

// Plane-local counters; FaultStats still owns wire-level loss counts.
struct TransportStats {
  uint64_t blocks_attached = 0;
  uint64_t blocks_released = 0;
  uint64_t attach_failed = 0;        // cold slab full; socket ran legacy path
  uint64_t hot_activations = 0;
  uint64_t hot_releases = 0;
  uint64_t segments_sent = 0;        // first transmissions
  uint64_t segments_retransmitted = 0;
  uint64_t segments_dropped = 0;     // fault-plane drops + scripted-hook drops
  uint64_t segments_dropped_filter = 0;  // ingress filter ate the payload
  uint64_t segments_stale = 0;       // arrived after the block was released
  uint64_t dup_segments = 0;
  uint64_t ooo_buffered = 0;
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;
  uint64_t rtt_samples = 0;
  uint64_t fast_retransmit_entries = 0;  // recovery episodes entered
  uint64_t rack_marked_lost = 0;
  uint64_t tlp_probes = 0;
  uint64_t rto_fires = 0;
  uint64_t send_blocked_no_slab = 0;
  uint64_t fins_sent = 0;
  uint64_t orphans_abandoned = 0;

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
  // Stable digest for double-run bit-identical gates.
  std::string Signature() const;
};

class TransportPlane : public TcpTransportHook {
 public:
  // Registers itself on `net` (net->set_transport(this)); the destructor
  // deregisters and detaches every still-wired socket.
  TransportPlane(SimKernel* kernel, NetStack* net, TransportConfig config = {});
  ~TransportPlane() override;
  TransportPlane(const TransportPlane&) = delete;
  TransportPlane& operator=(const TransportPlane&) = delete;

  // --- TcpTransportHook --------------------------------------------------------
  void Attach(SimSocket* sock) override;
  void Send(SimSocket* sock, Chunk chunk) override;
  void OnSocketClose(SimSocket* sock) override;
  void OnSocketDestroyed(SimSocket* sock) override;

  // Scripted loss hook for tests and the recovery-time bench: return true to
  // drop this data-segment transmission. Runs before the fault plane and
  // consumes no RNG, so schedules stay deterministic.
  using LossHook = std::function<bool(bool server_sender, uint32_t seq,
                                      uint16_t retx)>;
  void set_loss_hook(LossHook hook) { loss_hook_ = std::move(hook); }

  // Test oracle: re-derives every live connection's scoreboard with the
  // whole-queue walks the plane no longer runs — both TxSeg lists' members
  // and order, the byte counters, the receiver's runs against its ooo map,
  // and RackDetect's lost marks and next wait at the current time — and
  // returns the first disagreement, or "" when there is none. O(every
  // queued segment and parked segment); the plane never calls it.
  std::string CheckScoreboard();

  const TransportConfig& config() const { return config_; }
  const TransportStats& stats() const { return stats_; }

  // --- accounting (bench_million_idle, leak crosschecks) ----------------------
  // Server-side bytes the plane holds — must equal the ledger's kTransport
  // row at all times.
  size_t tracked_bytes() const;
  size_t live_blocks() const { return srv_.conns.size() + cli_.conns.size(); }
  size_t live_hot() const { return srv_.hot.size() + cli_.hot.size(); }
  size_t live_segments() const { return srv_.segs.size() + cli_.segs.size(); }

 private:
  struct Side {
    PagedStore<TcpConn> conns;
    PagedStore<TcpHot> hot;
    PagedStore<TxSeg> segs;
    // Socket backpointers by cold-block slot (nullptr = orphaned). Sidecar,
    // not in the slab, so the cold block stays 28 bytes; the server side's
    // capacity is ledgered by hand.
    std::vector<SimSocket*> socks;
  };

  Side& side(bool server) { return server ? srv_ : cli_; }

  // --- block lifecycle ---------------------------------------------------------
  TcpHot& EnsureHot(Side& s, TcpConn& c);
  bool ResolvePeer(TcpHot& h, SimSocket* sock);
  void ReleaseHot(Side& s, TcpConn& c);
  void ReleaseConn(bool server, int32_t ci, SimSocket* sock);
  void MaybeQuiesce(bool server, int32_t ci);
  void GrowSidecar(bool server, size_t need);

  // --- send machinery ----------------------------------------------------------
  void Pump(bool server, int32_t ci);
  void CarveSegment(TcpHot& h, TxSeg& seg, uint32_t budget);
  void TransmitSeg(bool server, int32_t ci, TcpConn& c, TcpHot& h, int32_t si);
  void RetransmitSeg(bool server, int32_t ci, TcpConn& c, TcpHot& h,
                     int32_t si);
  void SendFin(bool server, int32_t ci, TcpConn& c, TcpHot& h);
  // FIN owed and the retransmit queue drained: launch the FIN, and release
  // the block when close() already ran. Returns true if the block died.
  bool FinishClose(bool server, int32_t ci);

  // --- receive / ack machinery -------------------------------------------------
  void OnDataSegment(bool rcv_server, int32_t ri, uint32_t rgen,
                     bool snd_server, int32_t si, uint32_t sgen, uint32_t seq,
                     Chunk chunk);
  void OnFinSegment(bool rcv_server, int32_t ri, uint32_t rgen,
                    uint32_t fin_seq);
  // ACK `ack` toward the sender, with up to three SACK ranges from `sack`'s
  // out-of-order queue (none when null: no hot block, or a receiver that a
  // delivery callback tore down).
  void SendAck(bool rcv_server, uint32_t ack, const TcpHot* sack, bool snd_server,
               int32_t si, uint32_t sgen);
  void OnAckPacket(bool server, int32_t ci, uint32_t gen, uint32_t ack,
                   std::array<uint32_t, 3> sack_start,
                   std::array<uint32_t, 3> sack_end, uint8_t sack_count);

  // --- loss detection / timers -------------------------------------------------
  void EnterRecovery(TcpConn& c, TcpHot& h);
  // Marks an un-SACKed segment lost (no-op if already lost), taking it off
  // the RACK list.
  void MarkLost(Side& s, TcpHot& h, int32_t si);
  // Marks the first un-SACKed segment not yet lost: the next hole.
  void MarkFirstHoleLost(Side& s, TcpHot& h);
  void RackDetect(bool server, int32_t ci, TcpConn& c, TcpHot& h);
  void ArmRto(bool server, int32_t ci, TcpConn& c, TcpHot& h);
  void ArmTlp(bool server, int32_t ci, TcpConn& c, TcpHot& h);
  void ArmLossRecheck(bool server, int32_t ci, TcpHot& h, SimDuration delay);
  void ArmPace(bool server, int32_t ci, TcpHot& h, SimTime at);
  void OnRtoTimer(bool server, int32_t ci, uint32_t gen);
  void OnLossTimer(bool server, int32_t ci, uint32_t gen, bool tlp);
  void OnPaceTimer(bool server, int32_t ci, uint32_t gen);
  SimDuration CurrentRto(const TcpConn& c) const;

  uint32_t Pipe(const TcpConn& c, const TcpHot& h) const {
    return (c.snd_nxt - c.snd_una) - h.sacked_bytes - h.lost_bytes;
  }
  void UpdateRtt(TcpConn& c, uint32_t sample_us);

  SimKernel* kernel_;
  NetStack* net_;
  TransportConfig config_;
  Rng rng_;
  Side srv_;
  Side cli_;
  size_t srv_sidecar_ledgered_ = 0;  // bytes of srv_.socks capacity on ledger
  TransportStats stats_;
  LossHook loss_hook_;
};

}  // namespace scio

#endif  // SRC_TRANSPORT_TRANSPORT_PLANE_H_
