// Shared machinery for the simulated web servers.
//
// All three of the paper's servers (§5) serve static content over HTTP/1.0
// with the same per-connection state machine — accept, read+parse request,
// write response, close — and a periodic idle-connection timeout sweep. They
// differ only in how they learn about events, which each subclass provides.

#ifndef SRC_SERVERS_SERVER_BASE_H_
#define SRC_SERVERS_SERVER_BASE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sys.h"
#include "src/http/request_parser.h"
#include "src/http/static_content.h"
#include "src/net/listener.h"
#include "src/servers/conn_table.h"

namespace scio {

class AdaptiveDefense;

struct ServerConfig {
  int listen_backlog = 128;
  size_t read_chunk = 4096;
  // Half-open (SYN) queue sizing for the listener this server creates via
  // Setup(). Shared listeners installed with AdoptListener keep whatever
  // their creator configured.
  SynBacklogConfig syn_backlog;
  // thttpd's default idle timeouts are in the minutes; inactive connections
  // are expected to survive (their clients trickle bytes to stay alive).
  SimDuration idle_timeout = Seconds(60);
  SimDuration timer_sweep_interval = Seconds(1);
  // Graceful degradation under descriptor pressure: above the high watermark
  // (fraction of the fd table) the server stops accepting and reaps idle
  // connections on the much shorter pressure timeout; accepting resumes only
  // below the low watermark (hysteresis, so it doesn't flap at the edge).
  double fd_high_watermark = 0.92;
  double fd_low_watermark = 0.85;
  SimDuration pressure_idle_timeout = Seconds(2);
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t responses_sent = 0;
  uint64_t not_found_sent = 0;
  uint64_t bad_requests = 0;
  uint64_t idle_timeouts = 0;
  uint64_t peer_closes = 0;
  uint64_t accept_emfile = 0;
  uint64_t stale_events = 0;     // events for already-closed connections
  uint64_t loop_iterations = 0;
  uint64_t overflow_recoveries = 0;  // RT signal queue overflows handled
  uint64_t mode_switches = 0;        // hybrid server transitions
  uint64_t accepts_throttled = 0;    // accepts skipped under fd pressure
  uint64_t pressure_reaps = 0;       // idle conns closed early under pressure
  uint64_t eintr_returns = 0;        // waits interrupted and retried
  uint64_t write_errors = 0;         // EPIPE/EBADF on response writes
  uint64_t devpoll_write_retries = 0;  // interest batches requeued on ENOMEM
  uint64_t accept_retries = 0;       // sweep-driven re-probes of a stalled backlog
  uint64_t deadline_reaps = 0;       // conns reaped for outliving the request deadline

  std::vector<std::pair<std::string, uint64_t>> ToRows() const;
};

class HttpServerBase {
 public:
  HttpServerBase(Sys* sys, const StaticContent* content, ServerConfig config);
  virtual ~HttpServerBase() = default;

  // Create the listening socket. Must be called once before Run().
  // Returns the listener fd, or a negative errno-style code on failure.
  int Setup();

  // Alternative to Setup() for worker processes: install an already-bound
  // shared listener (fork/SCM_RIGHTS inheritance) instead of creating one.
  // Returns the installed fd, or a negative errno-style code.
  int AdoptListener(const std::shared_ptr<SimListener>& listener);

  // Post-listener event-plane setup (open /dev/poll, arm signals, ...).
  // Servers whose RunBenchmark-era Run() does this lazily override it so a
  // WorkerPool can prepare every worker before any of them runs. Returns 0
  // or a negative errno-style code.
  virtual int SetupEvents() { return 0; }

  // Run the event loop until simulated time `until` (or kernel stop).
  virtual void Run(SimTime until) = 0;

  int listener_fd() const { return listener_fd_; }
  const ServerStats& stats() const { return stats_; }

  // Attach the shared graceful-degradation controller (borrowed; may be
  // null). The timer sweep reports fd pressure to it and, while it is
  // engaged, reaps connections that outlive its request deadline.
  void set_defense(AdaptiveDefense* defense) { defense_ = defense; }
  size_t open_connections() const { return conns_.size(); }
  // Bytes of slab storage the connection table holds (ledger cross-check).
  size_t conn_table_bytes() const { return conns_.tracked_bytes(); }
  const std::string& name() const { return name_; }

 protected:
  // Connection state lives in ConnTable's slab (src/servers/conn_table.h);
  // the aliases keep subclass code reading as before.
  using Phase = ConnPhase;
  using Conn = scio::Conn;

  // --- hooks for the event-acquisition subclasses -----------------------------
  virtual void OnConnOpened(int fd) { (void)fd; }
  virtual void OnConnPhaseChanged(int fd, Phase phase) {
    (void)fd;
    (void)phase;
  }
  virtual void OnConnClosing(int fd) { (void)fd; }

  // --- shared connection handling -----------------------------------------------
  // Accept every queued connection. Returns number accepted.
  int DrainAccepts();
  // Handle readability on a connection; returns false if the conn was closed.
  bool HandleReadable(int fd);
  // Continue a partial response write; returns false if the conn was closed.
  bool HandleWritable(int fd);
  // Dispatch one readiness report.
  void DispatchEvent(int fd, PollEvents revents);
  // Close and forget a connection.
  void CloseConn(int fd);
  // Close connections idle longer than the timeout. Charges per-connection
  // sweep costs. Returns number closed.
  int SweepTimeouts();
  // Run the sweep if the interval has elapsed.
  void MaybeSweep();
  // True while the fd table is too full to accept (hysteretic; see
  // ServerConfig watermarks). Updating the flag is a side effect.
  bool UnderFdPressure();
  // Shed idle connections using the aggressive pressure timeout.
  int PressureReap();
  // Close connections still reading their request `deadline` after accept.
  int DeadlineReap(SimDuration deadline);

  bool HasConn(int fd) const { return conns_.Contains(fd); }

  Sys& sys() { return *sys_; }
  SimKernel& kernel() { return sys_->kernel(); }

  std::string name_ = "http-server";
  Sys* sys_;
  const StaticContent* content_;
  ServerConfig config_;
  int listener_fd_ = -1;
  // Slab keyed by fd with intrusive activity/reading lists. Poll-set
  // rebuilds iterate ascending-fd; reaps walk only the expired list prefix
  // and close in ascending-fd order — simulation state never depends on
  // address order (sciolint D2), so seeded runs stay bit-identical.
  ConnTable conns_;
  ServerStats stats_;
  AdaptiveDefense* defense_ = nullptr;
  SimTime next_sweep_ = 0;
  bool fd_pressure_ = false;
  // True when DrainAccepts bailed out (EMFILE or fd pressure) with the
  // backlog possibly non-empty. Signal-driven servers never get another
  // listener edge for those queued connections — the enqueue-time signal was
  // already consumed — so MaybeSweep re-probes the backlog until it drains.
  bool accept_stalled_ = false;

 private:
  // Build and start sending the response for a completed request.
  void StartResponse(int fd, Conn& conn);
  // Close connections idle longer than `timeout`; `pressure` attributes the
  // closes to pressure_reaps instead of idle_timeouts.
  int ReapIdle(SimDuration timeout, bool pressure);
};

}  // namespace scio

#endif  // SRC_SERVERS_SERVER_BASE_H_
