#include "src/servers/server_base.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/http/http_message.h"
#include "src/servers/defense.h"

namespace scio {

namespace {

constexpr size_t kReadChunk = 4096;
constexpr SimDuration kTimerSweepInterval = Seconds(1);
// Graceful degradation under descriptor pressure: above the high watermark
// (fraction of the fd table) the server stops accepting and reaps idle
// connections on the much shorter pressure timeout; accepting resumes only
// below the low watermark (hysteresis, so it doesn't flap at the edge).
constexpr double kFdHighWatermark = 0.92;
constexpr double kFdLowWatermark = 0.85;
constexpr SimDuration kPressureIdleTimeout = Seconds(2);

}  // namespace

std::vector<std::pair<std::string, uint64_t>> ServerStats::ToRows() const {
  return {
      {"server.connections_accepted", connections_accepted},
      {"server.responses_sent", responses_sent},
      {"server.not_found_sent", not_found_sent},
      {"server.bad_requests", bad_requests},
      {"server.idle_timeouts", idle_timeouts},
      {"server.peer_closes", peer_closes},
      {"server.accept_emfile", accept_emfile},
      {"server.stale_events", stale_events},
      {"server.loop_iterations", loop_iterations},
      {"server.overflow_recoveries", overflow_recoveries},
      {"server.mode_switches", mode_switches},
      {"server.accepts_throttled", accepts_throttled},
      {"server.pressure_reaps", pressure_reaps},
      {"server.eintr_returns", eintr_returns},
      {"server.write_errors", write_errors},
      {"server.devpoll_write_retries", devpoll_write_retries},
      {"server.accept_retries", accept_retries},
      {"server.deadline_reaps", deadline_reaps},
  };
}

HttpServerBase::HttpServerBase(Sys* sys, const StaticContent* content, ServerConfig config)
    : sys_(sys), content_(content), config_(config) {
  conns_.set_limit(static_cast<size_t>(sys_->proc().fds().max_fds()));
  conns_.set_mem_ledger(&sys_->kernel().mem());
}

void HttpServerBase::Run(SimTime until) {
  while (kernel().now() < until && !kernel().stopped()) {
    ++stats_.loop_iterations;
    Step(until);
  }
}

void HttpServerBase::ChargeLoop() {
  kernel().Charge(kernel().cost().server_loop_overhead, ChargeCat::kServerLoop);
}

int HttpServerBase::WaitTimeoutMs(SimTime until) {
  const SimTime wake_at = std::min(until, next_sweep_);
  const auto timeout_ms =
      static_cast<int>((wake_at - kernel().now() + Millis(1) - 1) / Millis(1));
  return timeout_ms < 0 ? 0 : timeout_ms;
}

void HttpServerBase::PollPass(SimTime until, int timeout_ms) {
  pollfds_.clear();
  pollfds_.reserve(conns_.size() + 1);
  pollfds_.push_back(PollFd{listener_fd_, kPollIn, 0});
  conns_.ForEach([this](int fd, const Conn& conn) {
    pollfds_.push_back(PollFd{fd, conn.phase == Phase::kWriting ? kPollOut : kPollIn, 0});
  });
  kernel().Charge(kernel().cost().poll_userspace_rebuild_per_fd *
                      static_cast<SimDuration>(pollfds_.size()),
                  ChargeCat::kPollfdRebuild);
  const int ready = sys_->Poll(pollfds_, timeout_ms < 0 ? WaitTimeoutMs(until) : timeout_ms);
  if (ready == kErrIntr) {
    ++stats_.eintr_returns;  // interrupted; the next pass rebuilds and retries
  }
  if (ready <= 0) {
    return;
  }
  for (const PollFd& pfd : pollfds_) {
    if (pfd.revents != 0) {
      DispatchEvent(pfd.fd, pfd.revents);
    }
  }
}

int HttpServerBase::Setup() {
  listener_fd_ = sys_->Listen(config_.listen_backlog);
  if (listener_fd_ < 0) {
    return listener_fd_;  // EMFILE: the caller decides whether to retry
  }
  sys_->listener(listener_fd_)->ConfigureSynBacklog(config_.syn_backlog);
  next_sweep_ = kernel().now() + kTimerSweepInterval;
  return listener_fd_;
}

int HttpServerBase::AdoptListener(const std::shared_ptr<SimListener>& listener) {
  listener_fd_ = sys_->InstallFile(listener);
  if (listener_fd_ < 0) {
    return listener_fd_;
  }
  next_sweep_ = kernel().now() + kTimerSweepInterval;
  return listener_fd_;
}

bool HttpServerBase::UnderFdPressure() {
  const double used = static_cast<double>(sys_->proc().fds().open_count());
  const double capacity = static_cast<double>(sys_->proc().fds().max_fds());
  if (fd_pressure_) {
    if (used <= capacity * kFdLowWatermark) {
      fd_pressure_ = false;
    }
  } else if (used >= capacity * kFdHighWatermark) {
    fd_pressure_ = true;
  }
  return fd_pressure_;
}

int HttpServerBase::DrainAccepts() {
  int accepted = 0;
  accept_stalled_ = false;
  while (true) {
    if (UnderFdPressure()) {
      // Leave the rest of the backlog queued: accepting now would only push
      // the table into EMFILE. Reap idle conns so capacity comes back.
      ++stats_.accepts_throttled;
      PressureReap();
      accept_stalled_ = true;
      break;
    }
    const int fd = sys_->Accept(listener_fd_);
    if (fd == -1) {
      break;  // backlog empty
    }
    if (fd < 0) {
      if (fd == kErrMFile) {
        ++stats_.accept_emfile;
        PressureReap();  // shed idle conns so a later accept can succeed
      }
      accept_stalled_ = true;
      break;
    }
    kernel().Charge(kernel().cost().server_conn_setup, ChargeCat::kConnMgmt);
    conns_.Open(fd, kernel().now());
    ++stats_.connections_accepted;
    ++accepted;
    OnConnOpened(fd);
  }
  return accepted;
}

// sciolint: hotpath
void HttpServerBase::StartResponse(int fd, Conn& conn) {
  kernel().Charge(kernel().cost().http_build_response, ChargeCat::kHttpRespond);
  std::optional<size_t> size = content_->Lookup(conn.parser.path());
  if (size.has_value()) {
    if (ok_response_.data.empty() || ok_response_.synthetic != *size) {
      ok_response_ = BuildHttpOkResponse(*size);
    }
    conn.pending_write.data = ok_response_.data;
    conn.pending_write.synthetic = ok_response_.synthetic;
    ++stats_.responses_sent;
  } else {
    conn.pending_write = BuildHttpNotFoundResponse();
    ++stats_.not_found_sent;
  }
  conns_.SetPhase(fd, Phase::kWriting);
  // Attempt the write immediately; fall back to POLLOUT if it is short.
  HandleWritable(fd);
}

// sciolint: hotpath
bool HttpServerBase::HandleReadable(int fd) {
  Conn* conn = conns_.Get(fd);
  if (conn == nullptr) {
    ++stats_.stale_events;
    return false;
  }
  conns_.Touch(fd, kernel().now());

  const ReadResult r = sys_->Read(fd, kReadChunk, &read_buffer_);
  if (r.err != 0) {
    // EBADF: our bookkeeping has a conn the fd table doesn't. Drop it.
    CloseConn(fd);
    return false;
  }
  if (r.eof) {
    ++stats_.peer_closes;
    CloseConn(fd);
    return false;
  }
  if (r.n == 0) {
    return true;  // spurious wakeup / EAGAIN
  }
  if (conn->phase != Phase::kReading) {
    return true;  // pipelined bytes after the request; ignore
  }
  kernel().Charge(kernel().cost().http_parse_base +
                      kernel().cost().http_parse_per_byte * static_cast<SimDuration>(r.n),
                  ChargeCat::kHttpParse);
  const RequestParser::State state = conn->parser.Feed(read_buffer_);
  switch (state) {
    case RequestParser::State::kIncomplete:
      return true;
    case RequestParser::State::kError:
      ++stats_.bad_requests;
      CloseConn(fd);
      return false;
    case RequestParser::State::kComplete:
      StartResponse(fd, *conn);
      return HasConn(fd);
  }
  return true;
}

// sciolint: hotpath
bool HttpServerBase::HandleWritable(int fd) {
  Conn* conn = conns_.Get(fd);
  if (conn == nullptr) {
    ++stats_.stale_events;
    return false;
  }
  if (conn->phase != Phase::kWriting) {
    return true;
  }
  conns_.Touch(fd, kernel().now());

  // Write takes what it accepts out of pending_write and leaves the rest.
  if (sys_->Write(fd, std::move(conn->pending_write)) < 0) {
    ++stats_.write_errors;  // EPIPE/EBADF: response can never complete
    CloseConn(fd);
    return false;
  }
  if (conn->pending_write.size() == 0) {
    // HTTP/1.0: response done, server closes.
    CloseConn(fd);
    return false;
  }
  OnConnPhaseChanged(fd, Phase::kWriting);
  return true;
}

void HttpServerBase::DispatchEvent(int fd, PollEvents revents) {
  if (fd == listener_fd_) {
    if ((revents & kPollIn) != 0) {
      DrainAccepts();
    }
    return;
  }
  Conn* conn = conns_.Get(fd);
  if (conn == nullptr) {
    ++stats_.stale_events;
    return;
  }
  if ((revents & (kPollErr | kPollNval)) != 0) {
    CloseConn(fd);
    return;
  }
  if ((revents & (kPollIn | kPollHup)) != 0) {
    if (conn->phase == Phase::kWriting) {
      // Data or FIN while we are writing: drain reads first (could be the
      // peer aborting), then continue the write.
      if (!HandleReadable(fd)) {
        return;
      }
      HandleWritable(fd);
      return;
    }
    HandleReadable(fd);
    return;
  }
  if ((revents & kPollOut) != 0) {
    HandleWritable(fd);
  }
}

void HttpServerBase::CloseConn(int fd) {
  if (!conns_.Contains(fd)) {
    return;
  }
  OnConnClosing(fd);
  kernel().Charge(kernel().cost().server_conn_teardown, ChargeCat::kConnMgmt);
  conns_.Close(fd);
  // sciolint: allow(E1) -- conns_ held the fd, so EBADF is impossible here
  (void)sys_->Close(fd);
}

int HttpServerBase::ReapIdle(SimDuration timeout, bool pressure) {
  const SimTime now = kernel().now();
  // The simulated server still pays a per-connection sweep (that is the cost
  // model the paper measures); only the host-side walk below is confined to
  // the expired prefix of the activity list.
  kernel().Charge(kernel().cost().server_timer_sweep_per_conn *
                      static_cast<SimDuration>(conns_.size()),
                  ChargeCat::kTimerSweep);
  const std::vector<int>& expired = conns_.CollectIdle(now, timeout);
  for (int fd : expired) {
    if (pressure) {
      ++stats_.pressure_reaps;
    } else {
      ++stats_.idle_timeouts;
    }
    CloseConn(fd);
  }
  return static_cast<int>(expired.size());
}

int HttpServerBase::SweepTimeouts() {
  return ReapIdle(config_.idle_timeout, /*pressure=*/false);
}

int HttpServerBase::PressureReap() {
  return ReapIdle(kPressureIdleTimeout, /*pressure=*/true);
}

int HttpServerBase::DeadlineReap(SimDuration deadline) {
  const SimTime now = kernel().now();
  kernel().Charge(kernel().cost().server_timer_sweep_per_conn *
                      static_cast<SimDuration>(conns_.size()),
                  ChargeCat::kTimerSweep);
  // Only connections still fishing for a request: a conn that reached the
  // write phase proved itself; cutting it off mid-response helps nobody.
  const std::vector<int>& expired = conns_.CollectPastDeadline(now, deadline);
  for (int fd : expired) {
    ++stats_.deadline_reaps;
    CloseConn(fd);
  }
  return static_cast<int>(expired.size());
}

void HttpServerBase::MaybeSweep() {
  if (kernel().now() < next_sweep_) {
    return;
  }
  SweepTimeouts();
  // Under pressure, also shed anything idle past the aggressive timeout so
  // accepting can resume without waiting for EMFILE to force the issue.
  if (UnderFdPressure()) {
    PressureReap();
  }
  if (defense_ != nullptr) {
    const double capacity = static_cast<double>(sys_->proc().fds().max_fds());
    const double fd_frac =
        capacity > 0
            ? static_cast<double>(sys_->proc().fds().open_count()) / capacity
            : 0.0;
    defense_->Tick(fd_frac);
    if (defense_->tier() >= 1) {
      // Slowloris countermeasure: idle reaps never fire on a dripping
      // connection, but age since accept is immune to the drip.
      DeadlineReap(defense_->config().request_deadline);
    }
  }
  if (accept_stalled_) {
    // Connections stranded in the backlog by an earlier failed accept raise
    // no further notification (their edge already fired), so the sweep is
    // the only place a signal-driven server can pick them back up.
    ++stats_.accept_retries;
    DrainAccepts();
  }
  next_sweep_ = kernel().now() + kTimerSweepInterval;
}

}  // namespace scio
