// thttpd modified to use /dev/poll (paper §5.1).
//
// The interest set lives in the kernel and is maintained *incrementally*:
// connection open/close/phase changes append pollfd updates that are flushed
// with a single write() before each DP_POLL (the re-architecture the paper
// says legacy servers need, §6). Results arrive through the mmap'ed result
// area by default; both the mmap area and the fused write+poll ioctl can be
// toggled for the ablation benches.

#ifndef SRC_SERVERS_THTTPD_DEVPOLL_H_
#define SRC_SERVERS_THTTPD_DEVPOLL_H_

#include <vector>

#include "src/servers/server_base.h"

namespace scio {

struct ThttpdDevPollConfig {
  DevPollOptions devpoll;
  bool use_mmap_results = true;   // ABL-2 off: DP_POLL copies results out
  bool use_fused_ioctl = false;   // ABL-5 on: single write+poll syscall
};

class ThttpdDevPoll : public HttpServerBase {
 public:
  ThttpdDevPoll(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
                ThttpdDevPollConfig dp_config = ThttpdDevPollConfig{});

  // Opens /dev/poll, sets up the result mapping, registers the listener.
  // Returns the device fd, or a negative errno-style code on failure.
  int SetupDevPoll();

  int SetupEvents() override { return SetupDevPoll() < 0 ? -1 : 0; }

 protected:
  void Step(SimTime until) override;
  void OnConnOpened(int fd) override;
  void OnConnPhaseChanged(int fd, Phase phase) override;
  void OnConnClosing(int fd) override;

  void QueueUpdate(int fd, PollEvents events);
  // Returns false when the write failed (ENOMEM); the batch stays queued and
  // is retried before the next poll.
  bool FlushUpdates();
  // One DP_POLL + dispatch pass.
  void PollAndDispatch(SimTime until);

  ThttpdDevPollConfig dp_config_;
  int dpfd_ = -1;
  PollFd* result_area_ = nullptr;
  std::vector<PollFd> result_buffer_;   // used when mmap is disabled
  std::vector<PollFd> pending_updates_;
};

}  // namespace scio

#endif  // SRC_SERVERS_THTTPD_DEVPOLL_H_
