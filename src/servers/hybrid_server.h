// The hybrid server the paper imagines but could not build (§4, §6, §7).
//
// "To use either poll() or /dev/poll efficiently in phhttpd ... RT signal
// queue processing should maintain its pollfd array (or corresponding kernel
// state) concurrently with RT signal queue activity. This would allow
// switching between polling and signal queue mode with very little overhead."
//
// This server does exactly that:
//  - the /dev/poll interest set is maintained on every connection state
//    change regardless of mode (so a mode switch costs nothing);
//  - in signal mode, events drain in batches via the sigtimedwait4()
//    extension (§6 future work) for lower per-event syscall overhead;
//  - the HybridPolicy watches RT queue occupancy: past the high watermark —
//    or on an outright SIGIO overflow — it switches to DP_POLL, and switches
//    back once the queue stays calm (the logic Brown never implemented).

#ifndef SRC_SERVERS_HYBRID_SERVER_H_
#define SRC_SERVERS_HYBRID_SERVER_H_

#include <vector>

#include "src/core/hybrid_policy.h"
#include "src/servers/thttpd_devpoll.h"

namespace scio {

struct HybridServerConfig {
  int signal_batch = 32;  // sigtimedwait4 batch size
  HybridPolicyConfig policy;
};

class HybridServer : public ThttpdDevPoll {
 public:
  HybridServer(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
               ThttpdDevPollConfig dp_config = ThttpdDevPollConfig{},
               HybridServerConfig hybrid_config = HybridServerConfig{});

  // Call after Setup() + SetupDevPoll(): arms the listener and creates the
  // policy sized to the process's RT queue limit.
  void SetupHybrid();

  int SetupEvents() override {
    if (SetupDevPoll() < 0) {
      return -1;
    }
    SetupHybrid();
    return 0;
  }

  EventMode mode() const { return policy_ ? policy_->mode() : EventMode::kSignals; }
  const HybridPolicy* policy() const { return policy_ ? &*policy_ : nullptr; }

 protected:
  // The sweep and the interest-set flush, then one sigtimedwait4() batch in
  // signal mode or one DP_POLL pass in polling mode.
  void Step(SimTime until) override;
  void OnConnOpened(int fd) override;

 private:
  void RunSignalIteration(SimTime until);
  void UpdatePolicy(bool overflowed);

  HybridServerConfig hybrid_config_;
  std::optional<HybridPolicy> policy_;
  std::vector<SigInfo> signal_batch_;
};

}  // namespace scio

#endif  // SRC_SERVERS_HYBRID_SERVER_H_
