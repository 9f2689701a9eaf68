// Sys: the simulated syscall surface, as seen by server applications.
//
// This is the library's main public API for simulation users. It binds a
// Process to the SimKernel and NetStack and exposes the calls the paper's
// servers make — BSD sockets, classic poll(), the /dev/poll device, and the
// RT signal interface — with all cost-model charging and statistics handled
// internally. Server implementations (src/servers) are written purely
// against this class.

#ifndef SRC_CORE_SYS_H_
#define SRC_CORE_SYS_H_

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/core/devpoll.h"
#include "src/core/epoll_core.h"
#include "src/core/kqueue_core.h"
#include "src/core/poll_syscall.h"
#include "src/core/rt_io.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"
#include "src/kernel/sys_errno.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/net/socket.h"

namespace scio {

class Sys {
 public:
  Sys(SimKernel* kernel, Process* proc, NetStack* net)
      : kernel_(kernel), proc_(proc), net_(net), poll_(kernel, proc), rt_(kernel, proc) {}

  SimKernel& kernel() { return *kernel_; }
  Process& proc() { return *proc_; }
  NetStack& net() { return *net_; }
  SimTime now() const { return kernel_->now(); }

  // --- sockets ---------------------------------------------------------------
  // socket() + bind() + listen(): returns the listening fd, or -1 (EMFILE).
  [[nodiscard]] int Listen(int backlog = 128);

  // accept(): pops one established connection. Returns the new fd, -1 when
  // the backlog is empty (EAGAIN), -2 on a bad/closed listener fd (EBADF),
  // -3 when the fd table is full (EMFILE — the connection is dropped).
  [[nodiscard]] int Accept(int listener_fd);

  // read(): ReadResult.n == 0 with eof=false means EAGAIN; a bad fd sets
  // result.err = kErrBadF instead of asserting. The real bytes read replace
  // `*data` (the caller's buffer), or are dropped if `data` is null.
  [[nodiscard]] ReadResult Read(int fd, size_t max_bytes, std::string* data = nullptr);

  // write(): returns bytes accepted (0 = would block), -1 on a bad fd, or
  // kErrPipe when the connection can no longer carry data. The accepted
  // bytes leave `chunk` (SimSocket::Write); on an error it is untouched.
  [[nodiscard]] long Write(int fd, Chunk&& chunk);

  // close(): returns 0 or -1 (EBADF).
  [[nodiscard]] int Close(int fd);

  // --- classic poll() -----------------------------------------------------------
  [[nodiscard]] int Poll(std::span<PollFd> fds, int timeout_ms);
  PollSyscall& poll_syscall() { return poll_; }

  // --- /dev/poll -----------------------------------------------------------------
  // open("/dev/poll"): returns the device fd, or -1.
  [[nodiscard]] int OpenDevPoll(DevPollOptions options = DevPollOptions{});
  [[nodiscard]] long DevPollWrite(int dpfd, std::span<const PollFd> updates);
  [[nodiscard]] int DevPollAlloc(int dpfd, int nfds);
  [[nodiscard]] PollFd* DevPollMmap(int dpfd);
  [[nodiscard]] int DevPollMunmap(int dpfd);
  [[nodiscard]] int DevPollPoll(int dpfd, DvPoll* args);
  [[nodiscard]] int DevPollWritePoll(int dpfd, std::span<const PollFd> updates, DvPoll* args);
  // Direct handle, for tests and introspection.
  std::shared_ptr<DevPollDevice> devpoll(int dpfd);

  // --- successor cores --------------------------------------------------------------
  // epoll_create(): returns the epoll fd, or -1 / kErrMFile.
  [[nodiscard]] int OpenEpoll();
  [[nodiscard]] int EpollCtl(int epfd, EpollOp op, int fd, PollEvents events,
                             uint16_t flags = 0);
  [[nodiscard]] int EpollWait(int epfd, PollFd* out, int max, int timeout_ms);
  std::shared_ptr<EpollDevice> epoll_dev(int epfd);

  // kqueue(): returns the kqueue fd, or -1 / kErrMFile.
  [[nodiscard]] int OpenKqueue();
  [[nodiscard]] int Kevent(int kqfd, std::span<const KEvent> changes,
                           std::span<KEvent> events, int timeout_ms);
  std::shared_ptr<KqueueDevice> kqueue_dev(int kqfd);

  // --- RT signals -----------------------------------------------------------------
  [[nodiscard]] int ArmAsync(int fd, int signo) { return rt_.ArmAsync(fd, signo); }
  [[nodiscard]] std::optional<SigInfo> SigWaitInfo(int timeout_ms = -1,
                                                   int* error = nullptr) {
    return rt_.SigWaitInfo(timeout_ms, error);
  }
  [[nodiscard]] int SigTimedWait4(std::span<SigInfo> out, int timeout_ms = -1) {
    return rt_.SigTimedWait4(out, timeout_ms);
  }
  [[nodiscard]] size_t FlushRtSignals() { return rt_.FlushRtSignals(); }

  // --- descriptor passing -----------------------------------------------------------
  // Install an existing kernel file object into this process's descriptor
  // table — how a worker inherits a shared listener (fork or SCM_RIGHTS
  // passing; one syscall either way). Returns the new fd, or -1 (EMFILE).
  [[nodiscard]] int InstallFile(std::shared_ptr<File> file);

  // --- helpers for harnesses --------------------------------------------------------
  std::shared_ptr<SimListener> listener(int fd);
  std::shared_ptr<SimSocket> socket(int fd);

 private:
  template <typename Device, typename... Args>
  int OpenDevice(const char* trace_name, Args... args);

  // The file open under `fd` if it is of `kind`, else nullptr (EBADF). No
  // reference is taken: only for calls that run no event while they use it.
  File* PeekKind(int fd, FileKind kind) const {
    File* file = proc_->fds().Peek(fd);
    return file != nullptr && file->kind() == kind ? file : nullptr;
  }

  SimKernel* kernel_;
  Process* proc_;
  NetStack* net_;
  PollSyscall poll_;
  RtIo rt_;
};

}  // namespace scio

#endif  // SRC_CORE_SYS_H_
