// phhttpd: Zach Brown's experimental RT-signal web server (paper §2, §5.2).
//
// Single-threaded configuration, as benchmarked in the paper:
//  - every socket is armed with fcntl(F_SETOWN) + fcntl(F_SETSIG) (plus an
//    O_NONBLOCK fcntl), all signals masked;
//  - the core loop collects one siginfo per sigwaitinfo() call and reacts to
//    it — the per-event syscall overhead the paper blames for FIG 11;
//  - stale signals for closed descriptors are tolerated (§2: "a server
//    application may receive and try to process previously queued read or
//    write events before it picks up the close event");
//  - on SIGIO (RT queue overflow) the default recovery, kFlushPollResume,
//    flushes the queue, makes one non-blocking poll() pass over a pollfd
//    array rebuilt from scratch, and resumes sigwaitinfo(). The threaded
//    variant, kHandoffToPollSibling, hands every connection to its poll
//    sibling and, like the real phhttpd, *never switches back* to signal
//    mode (§6: "Brown never implemented this logic"); only tests select it.

#ifndef SRC_SERVERS_PHHTTPD_H_
#define SRC_SERVERS_PHHTTPD_H_

#include "src/servers/server_base.h"

namespace scio {

// How the server recovers from an RT signal queue overflow (SIGIO).
enum class OverflowRecovery {
  // Single-threaded configuration: flush the queue, run one poll() pass over
  // everything to find the events the flush discarded, resume signal mode.
  // Under sustained overload this cycles: the queue refills, overflows
  // again, and every cycle pays a full flush + from-scratch poll — the
  // behaviour behind FIG 14's latency jump.
  kFlushPollResume,
  // Threaded phhttpd (§6): hand every connection one at a time to the poll
  // sibling and stay in polling mode forever ("Brown never implemented" the
  // switch back).
  kHandoffToPollSibling,
};

struct PhhttpdConfig {
  OverflowRecovery recovery = OverflowRecovery::kFlushPollResume;
};

class Phhttpd : public HttpServerBase {
 public:
  Phhttpd(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
          PhhttpdConfig ph_config = PhhttpdConfig{});

  // Arms the listener for RT-signal delivery.
  void SetupSignals();

  int SetupEvents() override {
    SetupSignals();
    return 0;
  }

  bool in_poll_fallback() const { return poll_fallback_; }

 protected:
  // The sweep, then one sigwaitinfo() and its signal (with the overflow
  // recovery on SIGIO), or in the poll fallback one PollPass().
  void Step(SimTime until) override;
  void OnConnOpened(int fd) override;

 private:
  // Returns true if the signal was SIGIO (queue overflow).
  bool HandleSignal(const SigInfo& si);
  void EnterPollFallback();

  PhhttpdConfig ph_config_;
  bool poll_fallback_ = false;
};

}  // namespace scio

#endif  // SRC_SERVERS_PHHTTPD_H_
