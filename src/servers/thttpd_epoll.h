// thttpd ported to the epoll-style successor core.
//
// The /dev/poll port (thttpd_devpoll) batches interest updates into a
// userspace array and writes them before each poll. With the epoll-style
// core there is nothing to batch: epoll_ctl mutates exactly one kernel slab
// slot, so the server issues incremental ctls straight from the connection
// hooks. The wait harvests the kernel ready list — per-wait work is O(ready),
// which is the point fig15 demonstrates against the hinted scan.
//
// kEpollEdge on connection interests gives the edge-triggered variant
// (thttpd-epoll-et); the add/mod-time driver probe inside the core means an
// ET server needs no probe-after-arm dance.

#ifndef SRC_SERVERS_THTTPD_EPOLL_H_
#define SRC_SERVERS_THTTPD_EPOLL_H_

#include <vector>

#include "src/servers/server_base.h"

namespace scio {

struct ThttpdEpollConfig {
  bool edge_triggered = false;  // kEpollEdge on connection interests
};

class ThttpdEpoll : public HttpServerBase {
 public:
  ThttpdEpoll(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
              ThttpdEpollConfig ep_config = ThttpdEpollConfig{});

  // Opens the epoll device and registers the listener (level-triggered —
  // DrainAccepts drains the backlog fully either way).
  int SetupEpoll();

  int SetupEvents() override { return SetupEpoll() < 0 ? -1 : 0; }

 protected:
  void Step(SimTime until) override;
  void OnConnOpened(int fd) override;
  void OnConnPhaseChanged(int fd, Phase phase) override;
  void OnConnClosing(int fd) override;

  // Issue one ctl; on ENOMEM the mutation is queued and retried before the
  // next wait (the interest set stays stale-but-valid meanwhile, like the
  // /dev/poll port's failed write batches).
  void CtlOrQueue(EpollOp op, int fd, PollEvents events);
  void RetryPending();

  uint16_t conn_flags() const { return ep_config_.edge_triggered ? kEpollEdge : 0; }

  ThttpdEpollConfig ep_config_;
  int epfd_ = -1;
  std::vector<PollFd> events_;
  struct PendingCtl {
    EpollOp op;
    int fd;
    PollEvents events;
  };
  std::vector<PendingCtl> pending_ctls_;  // ENOMEM retry queue
};

}  // namespace scio

#endif  // SRC_SERVERS_THTTPD_EPOLL_H_
