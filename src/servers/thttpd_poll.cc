#include "src/servers/thttpd_poll.h"

namespace scio {

ThttpdPoll::ThttpdPoll(Sys* sys, const StaticContent* content, ServerConfig config,
                       PollSyscallOptions poll_options)
    : HttpServerBase(sys, content, config) {
  name_ = "thttpd-poll";
  sys->poll_syscall() = PollSyscall(&sys->kernel(), &sys->proc(), poll_options);
}

void ThttpdPoll::Step(SimTime until) {
  ChargeLoop();
  MaybeSweep();
  PollPass(until);
}

}  // namespace scio
