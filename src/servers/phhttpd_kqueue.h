// phhttpd re-architected around the kqueue-style filter core.
//
// The RT-signal phhttpd (src/servers/phhttpd.cc) pays one sigwaitinfo() trap
// per event and needs a probe-after-arm dance against the edge race plus an
// overflow recovery ladder. The kqueue port keeps phhttpd's event-driven
// shape but gets all three problems solved by the core:
//   - batching: one kevent() flushes the accumulated changelist AND harvests
//     up to a bufferful of events in the same trap (the paper's §6 fused
//     ioctl, grown up);
//   - the arm race: EV_ADD runs the filter at registration, so readiness
//     that predates the knote is queued, never lost;
//   - overflow: the active lists are per-knote, not a fixed-depth signal
//     queue — nothing to overflow, no recovery ladder.
//
// Each connection keeps BOTH knotes registered (read enabled first, write
// added disabled); phase changes flip EV_ENABLE/EV_DISABLE, which are
// idempotent — so an ENOMEM-failed batch can be retried verbatim. EV_CLEAR
// (edge-like) is the default, matching how kqueue servers are written.

#ifndef SRC_SERVERS_PHHTTPD_KQUEUE_H_
#define SRC_SERVERS_PHHTTPD_KQUEUE_H_

#include <vector>

#include "src/servers/server_base.h"

namespace scio {

struct PhhttpdKqueueConfig {
  bool ev_clear = true;   // EV_CLEAR on connection knotes (edge-like)
};

class PhhttpdKqueue : public HttpServerBase {
 public:
  PhhttpdKqueue(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
                PhhttpdKqueueConfig kq_config = PhhttpdKqueueConfig{});

  // Opens the kqueue and registers the listener's read knote.
  int SetupKqueue();

  int SetupEvents() override { return SetupKqueue() < 0 ? -1 : 0; }

 protected:
  // One fused kevent (changelist + harvest) and the dispatch of its events.
  // ENOMEM keeps the batch queued; every entry the server emits is
  // idempotent (EV_ADD modifies in place, EV_ENABLE/EV_DISABLE are flag
  // writes), so the verbatim retry is safe.
  void Step(SimTime until) override;
  void OnConnOpened(int fd) override;
  void OnConnPhaseChanged(int fd, Phase phase) override;
  void OnConnClosing(int fd) override;

  void QueueChange(int fd, int16_t filter, uint16_t flags);

  uint16_t clear_flag() const { return kq_config_.ev_clear ? kEvClear : uint16_t{0}; }

  PhhttpdKqueueConfig kq_config_;
  int kqfd_ = -1;
  std::vector<KEvent> events_;
  std::vector<KEvent> pending_changes_;
  // Server-side bookkeeping: fds whose knotes have actually been installed
  // (their EV_ADD batch was applied). Close deletes knotes only for these;
  // a conn whose ADD is still queued just has the queue purged.
  std::vector<uint8_t> armed_;
};

}  // namespace scio

#endif  // SRC_SERVERS_PHHTTPD_KQUEUE_H_
