// Quickstart: the /dev/poll API end to end on the simulated kernel.
//
// Builds a tiny world — one server process, one listener, one scripted
// client — and walks the exact sequence the paper describes (§3):
//   open /dev/poll -> write() interests -> DP_ALLOC + mmap the result area
//   -> ioctl(DP_POLL) -> handle events -> POLLREMOVE -> close.

#include <cassert>
#include <cstdlib>
#include <iostream>

#include "src/core/sys.h"
#include "src/http/http_message.h"

int main() {
  using namespace scio;

  // Syscall wrappers are [[nodiscard]]; an example should model checking them.
  auto must = [](long rc, const char* what) {
    if (rc < 0) {
      std::cerr << what << " failed: " << rc << "\n";
      std::exit(1);
    }
  };

  Simulator sim;
  SimKernel kernel(&sim);
  NetStack net(&kernel);
  Process& proc = kernel.CreateProcess("quickstart");
  Sys sys(&kernel, &proc, &net);

  // --- server setup -----------------------------------------------------------
  const int listen_fd = sys.Listen();
  const int dp = sys.OpenDevPoll();
  std::cout << "opened /dev/poll as fd " << dp << "\n";

  // Interest set lives in the kernel: one write() registers the listener.
  PollFd add{listen_fd, kPollIn, 0};
  must(sys.DevPollWrite(dp, {&add, 1}), "DP write(listener)");

  // Shared result area: no copy-out on DP_POLL (§3.3).
  must(sys.DevPollAlloc(dp, 64), "DP_ALLOC");
  PollFd* results = sys.DevPollMmap(dp);
  assert(results != nullptr);

  // --- a scripted client ---------------------------------------------------------
  auto listener = sys.listener(listen_fd);
  auto client = net.Connect(listener);
  client->on_connected = [&] {
    std::cout << "[client] connected at t=" << ToMillis(kernel.now()) << "ms\n";
    client->Write(Chunk{BuildHttpRequest("/index.html"), 0});
  };
  size_t client_received = 0;
  client->on_data = [&](size_t n) {
    client_received += n;
    client->Read(SIZE_MAX);
  };

  // --- the event loop --------------------------------------------------------------
  int conn_fd = -1;
  bool served = false;
  while (!served) {
    DvPoll args;
    args.dp_fds = nullptr;  // deliver into the mmap'ed area
    args.dp_nfds = 64;
    args.dp_timeout = 1000;
    const int ready = sys.DevPollPoll(dp, &args);
    std::cout << "DP_POLL -> " << ready << " event(s) at t=" << ToMillis(kernel.now())
              << "ms\n";
    for (int i = 0; i < ready; ++i) {
      if (results[i].fd == listen_fd) {
        conn_fd = sys.Accept(listen_fd);
        std::cout << "accepted connection as fd " << conn_fd << "\n";
        PollFd conn_interest{conn_fd, kPollIn, 0};
        must(sys.DevPollWrite(dp, {&conn_interest, 1}), "DP write(conn)");
      } else if (results[i].fd == conn_fd) {
        std::string request;
        (void)sys.Read(conn_fd, 4096, &request);
        std::cout << "request: " << request.substr(0, request.find('\r')) << "\n";
        must(sys.Write(conn_fd, BuildHttpOkResponse(6 * 1024)), "write(conn)");
        // Retire the interest with POLLREMOVE before closing (§3.1).
        PollFd remove{conn_fd, kPollRemove, 0};
        must(sys.DevPollWrite(dp, {&remove, 1}), "DP write(remove)");
        must(sys.Close(conn_fd), "close(conn)");
        served = true;
      }
    }
  }

  // Let the response drain to the client.
  sim.RunAll();
  std::cout << "[client] received " << client_received << " bytes of response\n";

  must(sys.DevPollMunmap(dp), "munmap");
  must(sys.Close(dp), "close(dp)");
  std::cout << "done: " << kernel.stats().syscalls << " simulated syscalls, "
            << kernel.stats().devpoll_driver_calls << " driver polls, "
            << kernel.stats().devpoll_driver_calls_avoided << " avoided by hints\n";
  return 0;
}
