#include "src/servers/hybrid_server.h"

namespace scio {

HybridServer::HybridServer(Sys* sys, const StaticContent* content, ServerConfig config,
                           ThttpdDevPollConfig dp_config, HybridServerConfig hybrid_config)
    : ThttpdDevPoll(sys, content, config, dp_config), hybrid_config_(hybrid_config) {
  name_ = "hybrid";
  signal_batch_.resize(static_cast<size_t>(hybrid_config_.signal_batch));
}

void HybridServer::SetupHybrid() {
  policy_.emplace(hybrid_config_.policy, sys().proc().rt_queue_max());
  // sciolint: allow(E1) -- Setup() has already validated listener_fd_
  (void)sys().ArmAsync(listener_fd_, kRtSigno);
}

void HybridServer::OnConnOpened(int fd) {
  ThttpdDevPoll::OnConnOpened(fd);  // maintain the interest set concurrently
  // sciolint: allow(E1) -- fd was accepted this iteration; arming cannot fail
  (void)sys().ArmAsync(fd, kRtSigno);
  // Same post-arm probe as phhttpd: data that raced ahead of the fcntl()
  // raised no signal (in polling mode the level-triggered scan would catch
  // it, but signal mode would starve the connection).
  HandleReadable(fd);
}

void HybridServer::UpdatePolicy(bool overflowed) {
  const EventMode before = policy_->mode();
  policy_->Update(sys().proc().rt_queue_length(), overflowed, kernel().now());
  if (policy_->mode() != before) {
    ++stats_.mode_switches;
    kernel().TraceInstant(
        TraceEventType::kModeSwitch,
        policy_->mode() == EventMode::kSignals ? "hybrid_to_signals"
                                               : "hybrid_to_polling",
        static_cast<int32_t>(sys().proc().rt_queue_length()),
        overflowed ? 1 : 0);
  }
}

void HybridServer::RunSignalIteration(SimTime until) {
  const int n = sys().SigTimedWait4(signal_batch_, WaitTimeoutMs(until));
  if (n == kErrIntr) {
    ++stats_.eintr_returns;  // interrupted; the next Step() waits again
  }
  bool overflowed = false;
  for (int i = 0; i < n; ++i) {
    const SigInfo& si = signal_batch_[static_cast<size_t>(i)];
    if (si.signo == kSigIo) {
      // Overflow: events were lost. The interest set is already in the
      // kernel, so recovery is just "let DP_POLL tell us the truth".
      ++stats_.overflow_recoveries;
      overflowed = true;
      continue;
    }
    if (si.fd == listener_fd_) {
      DrainAccepts();
      continue;
    }
    DispatchEvent(si.fd, si.band == 0 ? kPollIn : si.band);
  }
  if (overflowed) {
    // sciolint: allow(E1) -- the flushed-signal count is irrelevant by design
    (void)sys().FlushRtSignals();
    UpdatePolicy(/*overflowed=*/true);
    PollAndDispatch(until);  // pick up everything the flush discarded
    return;
  }
  UpdatePolicy(/*overflowed=*/false);
}

void HybridServer::Step(SimTime until) {
  MaybeSweep();
  FlushUpdates();  // interest set stays current in both modes
  if (policy_->mode() == EventMode::kSignals) {
    RunSignalIteration(until);
    return;
  }
  // Polling mode: signals still accrue (connections stay armed) — discard
  // them cheaply and let the level-triggered scan find the work. Their
  // queue length still drives the switch-back decision.
  ChargeLoop();
  UpdatePolicy(/*overflowed=*/sys().proc().sigio_pending());
  if (sys().proc().rt_queue_length() > 0 || sys().proc().sigio_pending()) {
    // sciolint: allow(E1) -- discarding is the point; the scan finds the work
    (void)sys().FlushRtSignals();
  }
  PollAndDispatch(until);
}

}  // namespace scio
