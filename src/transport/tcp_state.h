// Per-connection TCP state for the opt-in transport plane.
//
// Two-tier layout, sized against the million-connection memory wall
// (PAPERS.md, "Scouting the Path to a Million-Client Server"): a *cold*
// TcpConn block — 28 bytes, always resident, enough to resume a quiescent
// connection — and a *hot* TcpHot block allocated only while data is in
// flight (backlog, retransmit queue, scoreboard, timers, reassembly) and
// released the moment the connection drains. A million idle connections with
// transport attached therefore cost ~40 B each (slot + generation tag +
// socket backpointer), which keeps bench_million_idle's ≤256 B/conn gate
// green; see the quiescent-footprint test in tests/transport_test.cc.

#ifndef SRC_TRANSPORT_TCP_STATE_H_
#define SRC_TRANSPORT_TCP_STATE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/kernel/paged_slab.h"
#include "src/net/socket.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace scio {

// Fixed MSS of the simulated path (Ethernet 1500 minus 40 bytes of
// IP+TCP header); segments on the wire carry payload + kTcpHeaderBytes.
inline constexpr uint32_t kTcpMss = 1460;
inline constexpr uint32_t kTcpHeaderBytes = 40;

// RFC 6928 initial window.
inline constexpr uint16_t kTcpInitialCwndMss = 10;
inline constexpr uint16_t kTcpMaxCwndMss = 0xffff;

// Pluggable congestion-control stacks, patterned on FreeBSD's
// tcp_stacks/{rack,bbr}: the functional setsockopt-selectable modules.
enum class CcKind : uint8_t {
  kReno = 0,  // NewReno AIMD, 3-dupack fast retransmit
  kRack = 1,  // NewReno cwnd dynamics + RACK time-based loss detection + TLP
  kBbr = 2,   // delivery-rate model: pacing from btlbw, cwnd from 2*BDP
};
const char* CcKindName(CcKind kind);

// TcpConn.meta: low two bits select the CcKind, the rest are flags.
inline constexpr uint8_t kTpFinPending = 1 << 2;  // close() ran; FIN owed
inline constexpr uint8_t kTpFinSent = 1 << 3;     // FIN launched
inline constexpr uint8_t kTpClosing = 1 << 4;     // release block once drained

// Cold block: one per attached connection, paged-slab resident for the whole
// connection lifetime. Kept at exactly 28 bytes — with the 4-byte generation
// tag and the 8-byte socket backpointer sidecar this is ~40 B/conn, the
// budget the bench_million_idle gate allows on top of the fd/conn/interest
// planes. rttvar saturates at u16 microseconds (65.5 ms); the RTO clamp
// makes anything larger irrelevant.
struct TcpConn {
  uint32_t snd_nxt = 0;   // next sequence byte to send
  uint32_t snd_una = 0;   // oldest unacknowledged byte
  uint32_t rcv_nxt = 0;   // next in-order byte expected
  uint32_t srtt_us = 0;   // RFC 6298 smoothed RTT; 0 = no sample yet
  int32_t hot = kNilIndex;  // TcpHot slot while active
  uint16_t rttvar_us = 0;
  uint16_t cwnd_mss = kTcpInitialCwndMss;
  uint16_t ssthresh_mss = 0xffff;
  uint8_t meta = 0;         // bits 0-1: CcKind; bits 2+: kTp* flags
  uint8_t rto_backoff = 0;  // consecutive RTOs without forward progress

  CcKind cc_kind() const { return static_cast<CcKind>(meta & 3); }
  void set_cc_kind(CcKind kind) {
    meta = static_cast<uint8_t>((meta & ~3) | static_cast<uint8_t>(kind));
  }
  bool flag(uint8_t f) const { return (meta & f) != 0; }
  void set_flag(uint8_t f) { meta |= f; }
};
static_assert(sizeof(TcpConn) == 28, "cold block budget is 28 bytes");

// One segment in a sender's retransmit queue, living on the plane's bounded
// TxSeg slab. Each segment sits on up to three per-connection lists, linked
// by slab index (heads and tails in TcpHot):
//   - the retransmit queue, through `next`: every unacknowledged segment in
//     sequence order; cumulative ACKs pop its head;
//   - the un-SACKed list, through `unsacked`: exactly the queued segments
//     with !sacked, in sequence order — SACK marking, the dupack and
//     partial-ACK hole search, RTO marking and the tail-loss probe (its
//     tail) walk it and never see a SACKed segment;
//   - the RACK list, through `rack`: exactly the queued segments with
//     !sacked && !lost, in order of their latest transmission, so tx_time
//     never decreases from head to tail. Every send puts its segment at the
//     tail (a first send or a repair links it there, a probe moves it
//     there); a SACK or a lost mark unlinks it. RackDetect stops at the
//     first segment it cannot mark.
// The delivered_* snapshot fields implement BBR-style delivery-rate samples
// (rate = delivered bytes since this segment left / time elapsed).
struct TxSeg {
  uint32_t seq = 0;
  uint32_t len = 0;
  int32_t next = kNilIndex;
  uint32_t delivered_at_tx = 0;
  IndexLink unsacked;
  IndexLink rack;
  SimTime tx_time = 0;   // most recent transmission (RACK orders by this)
  SimTime first_tx = 0;
  SimTime delivered_time_at_tx = 0;
  uint16_t retx = 0;     // Karn's rule: only retx==0 segments yield RTT samples
  bool sacked = false;   // covered by a peer SACK range
  bool lost = false;     // marked by the scoreboard, awaiting retransmission
  bool app_limited = false;  // sender ran out of backlog when this left
  Chunk payload;
};

// Head and tail of one per-connection TxSeg list (kNilIndex when empty).
struct SegListEnds {
  int32_t head = kNilIndex;
  int32_t tail = kNilIndex;
};

// Hot block: everything a connection needs only while data is in flight.
// Allocated from its own paged slab on first send (or out-of-order arrival)
// and released when the connection quiesces; parked slots keep container
// capacity for reuse, the plane resets fields on activation.
struct TcpHot {
  // Cached route to the peer's cold block (side, slot, generation) so data
  // and ACK deliveries resolve without shared_ptr traffic; a stale
  // generation means the peer is gone and the frame is dropped.
  int32_t peer_idx = kNilIndex;
  uint32_t peer_gen = 0;
  bool peer_server = false;
  bool peer_known = false;

  // --- sender ----------------------------------------------------------------
  int32_t rtx_head = kNilIndex;  // oldest in-flight segment
  int32_t rtx_tail = kNilIndex;
  SegListEnds unsacked;          // see TxSeg
  SegListEnds rack;
  uint32_t rtx_count = 0;
  uint32_t sacked_bytes = 0;
  uint32_t lost_bytes = 0;   // marked lost, not yet retransmitted
  uint32_t dupacks = 0;
  uint32_t recover_seq = 0;  // recovery episode ends when snd_una passes this
  uint32_t cwnd_acc = 0;     // congestion-avoidance byte accumulator
  bool in_recovery = false;
  bool tlp_out = false;      // one tail-loss probe per flight
  std::deque<Chunk> backlog;  // accepted, not yet segmented
  size_t backlog_bytes = 0;

  // --- delivery-rate bookkeeping (BBR) -----------------------------------------
  uint32_t delivered = 0;         // total bytes cumulatively acked or sacked
  SimTime delivered_time = 0;
  uint32_t next_round_delivered = 0;
  uint32_t round_count = 0;
  uint32_t btlbw_round = 0;
  double btlbw_Bps = 0;           // windowed-max bottleneck bandwidth estimate
  double full_bw = 0;
  uint8_t full_bw_cnt = 0;
  uint8_t bbr_mode = 0;           // 0 STARTUP, 1 DRAIN, 2 PROBE_BW
  uint8_t cycle_idx = 0;          // PROBE_BW pacing-gain phase
  uint32_t min_rtt_us = 0;
  SimTime min_rtt_stamp = 0;
  SimTime cycle_stamp = 0;

  // --- pacing ------------------------------------------------------------------
  SimTime pace_next = 0;      // earliest time the next paced segment may leave
  bool pace_armed = false;

  // --- RACK scoreboard ---------------------------------------------------------
  SimTime rack_mstamp = 0;    // tx_time of the most recently delivered segment
  bool loss_armed = false;    // reorder-window recheck or TLP pending
  bool tlp_armed = false;     // the pending loss timer is a TLP (restartable)
  bool rto_armed = false;

  EventHandle rto_timer{};
  EventHandle loss_timer{};   // RACK recheck / tail-loss probe
  EventHandle pace_timer{};

  // --- receiver ----------------------------------------------------------------
  std::map<uint32_t, Chunk> ooo;  // out-of-order segments keyed by seq
  // ooo merged into maximal contiguous [start, end) runs, ascending: a run
  // ends where the next parked segment does not start. A parked segment
  // extends or joins its neighbours; an in-order drain trims the first run.
  // SendAck's SACK blocks are the first three.
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  uint32_t ooo_bytes = 0;
  bool fin_rcvd = false;     // peer FIN waiting for rcv_nxt to reach fin_seq
  uint32_t fin_seq = 0;
};

}  // namespace scio

#endif  // SRC_TRANSPORT_TCP_STATE_H_
