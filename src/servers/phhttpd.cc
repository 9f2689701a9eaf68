#include "src/servers/phhttpd.h"

namespace scio {

Phhttpd::Phhttpd(Sys* sys, const StaticContent* content, ServerConfig config,
                 PhhttpdConfig ph_config)
    : HttpServerBase(sys, content, config), ph_config_(ph_config) {
  name_ = "phhttpd";
}

void Phhttpd::SetupSignals() {
  // sciolint: allow(E1) -- Setup() has already validated listener_fd_
  (void)sys().ArmAsync(listener_fd_, kRtSigno);
}

void Phhttpd::OnConnOpened(int fd) {
  // fcntl(F_SETFL, O_NONBLOCK) — charged as one extra fcntl — plus
  // F_SETOWN/F_SETSIG inside ArmAsync.
  ++kernel().stats().syscalls;
  ++kernel().stats().fcntls;
  kernel().Charge(kernel().cost().syscall_entry + kernel().cost().fcntl_extra,
                  ChargeCat::kSyscallEntry);
  // sciolint: allow(E1) -- fd was accepted this iteration; arming cannot fail
  (void)sys().ArmAsync(fd, kRtSigno);
  // Classic edge-notification race: bytes that arrived between the SYN and
  // the fcntl() raised no signal (nothing was armed yet), so a signal-driven
  // server must probe the socket once right after arming or those
  // connections starve.
  HandleReadable(fd);
}

bool Phhttpd::HandleSignal(const SigInfo& si) {
  if (si.signo == kSigIo) {
    return true;  // queue overflow; Step() drives the recovery
  }
  if (si.fd == listener_fd_) {
    DrainAccepts();
    return false;
  }
  // The siginfo carries the same information as a pollfd (band == revents),
  // but it is only a hint about a past state (§6) — the connection may have
  // moved on or closed. DispatchEvent tolerates both.
  DispatchEvent(si.fd, si.band == 0 ? kPollIn : si.band);
  return false;
}

void Phhttpd::EnterPollFallback() {
  poll_fallback_ = true;
  ++stats_.mode_switches;
  kernel().TraceInstant(TraceEventType::kModeSwitch, "phhttpd_poll_fallback",
                        static_cast<int32_t>(conns_.size()));
  // Flush pending RT signals by resetting handlers to SIG_DFL (§2); a full
  // poll() pass afterwards discovers any activity the flush discarded.
  // sciolint: allow(E1) -- the flushed-signal count is irrelevant by design
  (void)sys().FlushRtSignals();
  // §6: "the thread managing the RT signal queue passes all of its current
  // connections, including its listener socket, to its poll sibling, via a
  // special UNIX domain socket ... one at a time."
  kernel().Charge(kernel().cost().rt_overflow_handoff_per_conn *
                      static_cast<SimDuration>(conns_.size() + 1),
                  ChargeCat::kOverflowHandoff);
  // phhttpd's recovery "completely rebuilds its poll interest set ...
  // negating any benefit of maintaining interest set state" (§6); from here
  // on every loop iteration pays the rebuild. The sockets stay armed for RT
  // signals (nothing disarms them), so the queue keeps refilling and must be
  // re-flushed every iteration — see Step().
}

void Phhttpd::Step(SimTime until) {
  MaybeSweep();
  if (poll_fallback_) {
    ChargeLoop();
    // Every socket is still armed, so queued (and overflowing) signals keep
    // accumulating; drain them or SIGIO fires forever.
    if (sys().proc().HasPendingSignals()) {
      // sciolint: allow(E1) -- discarding is the point; poll() finds the work
      (void)sys().FlushRtSignals();
    }
    PollPass(until);
    return;
  }

  int error = 0;
  std::optional<SigInfo> si = sys().SigWaitInfo(WaitTimeoutMs(until), &error);
  if (error == kErrIntr) {
    ++stats_.eintr_returns;  // interrupted; the next Step() waits again
  }
  if (!si.has_value() || !HandleSignal(*si)) {
    return;
  }
  // SIGIO: the RT queue overflowed and events were lost (§2).
  ++stats_.overflow_recoveries;
  if (ph_config_.recovery == OverflowRecovery::kHandoffToPollSibling) {
    EnterPollFallback();
    return;
  }
  // Single-threaded recovery: reset handlers to SIG_DFL (flushing the
  // queue), then one full, non-blocking poll() pass to discover everything
  // the flush discarded, then back to sigwaitinfo(). Under sustained
  // overload this whole cycle repeats.
  // sciolint: allow(E1) -- the flushed-signal count is irrelevant by design
  (void)sys().FlushRtSignals();
  PollPass(until, /*timeout_ms=*/0);
}

}  // namespace scio
