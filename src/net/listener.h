// SimListener: a listening TCP socket with a bounded accept backlog and a
// bounded SYN (half-open) backlog.
//
// A SYN that finds the accept backlog full is refused — one of the error
// sources the paper's httperf reports ("the server refuses connections for
// some reason", §5.1). Each queued-but-unaccepted connection is already
// established from the client's point of view, so clients may start sending
// before accept().
//
// The SYN backlog models listen()'s half-open queue. Well-behaved clients
// ACK within one RTT — instantly, at this model's resolution — so they hold
// a half-open slot for zero time and the benign path is unchanged. Spoofed
// SYNs (HandleRawSyn) never ACK: each occupies a slot until the syn_timeout
// reap, and once the queue saturates, benign SYNs are silently dropped (the
// flood's actual damage) unless syncookies are enabled, in which case every
// SYN is answered statelessly at per-SYN CPU cost and no slot is held.

#ifndef SRC_NET_LISTENER_H_
#define SRC_NET_LISTENER_H_

#include <deque>
#include <memory>

#include "src/kernel/file.h"
#include "src/net/ring_queue.h"
#include "src/net/socket.h"
#include "src/sim/time.h"

namespace scio {

class ReusePortGroup;

struct SynBacklogConfig {
  int max_half_open = 256;             // Linux tcp_max_syn_backlog, scaled down
  SimDuration syn_timeout = Seconds(3);  // half-open entries reaped after this
  bool syncookies = false;               // stateless fallback when saturated
};

class SimListener : public File {
 public:
  SimListener(SimKernel* kernel, NetStack* net, int backlog_max = 128)
      : File(kernel, FileKind::kListener), net_(net), backlog_max_(backlog_max) {}

  // --- File interface --------------------------------------------------------
  PollEvents PollMask() const override { return backlog_.empty() ? 0 : kPollIn; }
  bool SupportsPollHints() const override { return true; }
  void OnFdClose() override;

  // SYN arrival (scheduled by NetStack::Connect through the link).
  void HandleSyn(const std::shared_ptr<SimSocket>& client);

  // Spoofed SYN arrival (scheduled by NetStack::RawSyn): no client socket
  // exists and no ACK will ever come, so the SYN either occupies a half-open
  // slot until the timeout reap or — under syncookies — costs a stateless
  // SYN-ACK and is forgotten.
  void HandleRawSyn(int src_port);

  // Pop the next established connection; nullptr when the backlog is empty.
  std::shared_ptr<SimSocket> Accept();

  size_t backlog_depth() const { return backlog_.size(); }
  int backlog_max() const { return backlog_max_; }
  bool closed() const { return closed_; }

  // --- SYN backlog -----------------------------------------------------------
  void ConfigureSynBacklog(const SynBacklogConfig& config) { syn_config_ = config; }
  void set_syncookies(bool on) { syn_config_.syncookies = on; }
  const SynBacklogConfig& syn_config() const { return syn_config_; }
  // Drop half-open entries whose timeout has passed (charges reap debt).
  // Called lazily on every SYN arrival; the defense tick also calls it so
  // occupancy readings decay even when no SYNs arrive.
  void ReapHalfOpen();
  size_t syn_backlog_depth() const { return half_open_.size(); }
  size_t syn_backlog_peak() const { return syn_backlog_peak_; }

  // SO_REUSEPORT sharding group, if this listener joined one (borrowed;
  // maintained by ReusePortGroup). NetStack::Connect consults it to route
  // the SYN to the flow-hashed member instead of this listener.
  void set_reuseport_group(ReusePortGroup* group) { reuseport_group_ = group; }
  ReusePortGroup* reuseport_group() const { return reuseport_group_; }

 private:
  struct HalfOpen {
    int src_port = 0;
    SimTime expires = 0;
  };

  // Interrupt-context arrival accounting + ingress filter traversal. Returns
  // false when the filter dropped the SYN.
  bool IngressSynAllowed(int src_port);

  NetStack* net_;
  int backlog_max_;
  bool closed_ = false;
  ReusePortGroup* reuseport_group_ = nullptr;
  RingQueue<std::shared_ptr<SimSocket>, 2> backlog_;
  // Half-open queue: entries share one timeout, so the deque stays ordered
  // by expiry and the reap pops from the front.
  SynBacklogConfig syn_config_;
  std::deque<HalfOpen> half_open_;
  size_t syn_backlog_peak_ = 0;
};

}  // namespace scio

#endif  // SRC_NET_LISTENER_H_
