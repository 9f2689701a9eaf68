// thttpd, stock configuration: single-process, event-driven, classic poll().
//
// Faithful to the legacy-application behaviour the paper calls out (§6):
// "applications of this type often entirely rebuild their pollfd array each
// time they invoke poll()" — so every loop iteration pays a user-space
// rebuild over all connections plus poll()'s full copy-in and driver scan.

#ifndef SRC_SERVERS_THTTPD_POLL_H_
#define SRC_SERVERS_THTTPD_POLL_H_

#include "src/servers/server_base.h"

namespace scio {

class ThttpdPoll : public HttpServerBase {
 public:
  ThttpdPoll(Sys* sys, const StaticContent* content, ServerConfig config = ServerConfig{},
             PollSyscallOptions poll_options = PollSyscallOptions{});

 protected:
  void Step(SimTime until) override;
};

}  // namespace scio

#endif  // SRC_SERVERS_THTTPD_POLL_H_
