#include "src/core/sys.h"

#include "src/kernel/sys_errno.h"

namespace scio {

int Sys::Listen(int backlog) {
  SyscallTraceScope trace(kernel_, "listen");
  KernelStats& stats = kernel_->stats();
  // socket() + bind() + listen().
  stats.syscalls += 3;
  kernel_->Charge(3 * kernel_->cost().syscall_entry, ChargeCat::kSyscallEntry);
  if (FaultPlane* fault = kernel_->fault(); fault != nullptr && fault->InjectOpenEmfile()) {
    trace.set_result(kErrMFile);
    return kErrMFile;
  }
  auto listener = std::make_shared<SimListener>(kernel_, net_, backlog);
  const int fd = proc_->fds().Allocate(std::move(listener));
  trace.set_result(fd);
  return fd;
}

// sciolint: hotpath
int Sys::Accept(int listener_fd) {
  SyscallTraceScope trace(kernel_, "accept", listener_fd);
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  ++stats.accepts;
  kernel_->Charge(kernel_->cost().syscall_entry, ChargeCat::kSyscallEntry);
  auto* listener = static_cast<SimListener*>(PeekKind(listener_fd, FileKind::kListener));
  if (listener == nullptr) {
    trace.set_result(kErrBadF);
    return kErrBadF;
  }
  if (FaultPlane* fault = kernel_->fault(); fault != nullptr && fault->InjectAcceptEmfile()) {
    // Injected descriptor exhaustion: unlike the natural EMFILE below, the
    // connection stays queued in the backlog so the server can retry once it
    // has shed descriptors.
    trace.set_result(kErrMFile);
    return kErrMFile;
  }
  std::shared_ptr<SimSocket> conn = listener->Accept();
  if (conn == nullptr) {
    trace.set_result(-1);
    return -1;
  }
  kernel_->Charge(kernel_->cost().accept_extra, ChargeCat::kAccept);
  const int fd = proc_->fds().Allocate(conn);
  if (fd < 0) {
    // EMFILE: the kernel tears the connection down.
    conn->Close();
    trace.set_result(-3);
    return -3;
  }
  trace.set_result(fd);
  return fd;
}

// sciolint: hotpath
ReadResult Sys::Read(int fd, size_t max_bytes, std::string* data) {
  SyscallTraceScope trace(kernel_, "read", fd);
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  ++stats.reads;
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kReadCopy, kernel_->cost().read_extra}});
  auto* socket = static_cast<SimSocket*>(PeekKind(fd, FileKind::kSocket));
  if (socket == nullptr) {
    ReadResult bad;
    bad.err = kErrBadF;
    trace.set_result(kErrBadF);
    return bad;
  }
  ReadResult result = socket->Read(max_bytes, data);
  stats.bytes_read += result.n;
  kernel_->Charge(kernel_->cost().read_per_byte * static_cast<SimDuration>(result.n),
                  ChargeCat::kReadCopy);
  trace.set_result(static_cast<int32_t>(result.n));
  return result;
}

// sciolint: hotpath
long Sys::Write(int fd, Chunk&& chunk) {
  SyscallTraceScope trace(kernel_, "write", fd);
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  ++stats.writes;
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kSendBytes, kernel_->cost().write_extra}});
  auto* socket = static_cast<SimSocket*>(PeekKind(fd, FileKind::kSocket));
  if (socket == nullptr) {
    trace.set_result(-1);
    return -1;
  }
  const SimSocket::State state = socket->state();
  if (state != SimSocket::State::kEstablished && state != SimSocket::State::kPeerClosed) {
    trace.set_result(kErrPipe);
    return kErrPipe;  // the connection can never carry these bytes
  }
  const size_t accepted = socket->Write(std::move(chunk));
  stats.bytes_written += accepted;
  kernel_->Charge(kernel_->cost().write_per_byte * static_cast<SimDuration>(accepted),
                  ChargeCat::kSendBytes);
  trace.set_result(static_cast<int32_t>(accepted));
  return static_cast<long>(accepted);
}

int Sys::Close(int fd) {
  SyscallTraceScope trace(kernel_, "close", fd);
  KernelStats& stats = kernel_->stats();
  ++stats.syscalls;
  ++stats.closes;
  kernel_->Charge({{ChargeCat::kSyscallEntry, kernel_->cost().syscall_entry},
                   {ChargeCat::kClose, kernel_->cost().close_extra}});
  const int rc = proc_->fds().Close(fd);
  trace.set_result(rc);
  return rc;
}

int Sys::Poll(std::span<PollFd> fds, int timeout_ms) { return poll_.Poll(fds, timeout_ms); }

// open() of an event device: one trap, then an injected EMFILE or the fd.
template <typename Device, typename... Args>
int Sys::OpenDevice(const char* trace_name, Args... args) {
  SyscallTraceScope trace(kernel_, trace_name);
  ++kernel_->stats().syscalls;
  kernel_->Charge(kernel_->cost().syscall_entry, ChargeCat::kSyscallEntry);
  if (FaultPlane* fault = kernel_->fault(); fault != nullptr && fault->InjectOpenEmfile()) {
    trace.set_result(kErrMFile);
    return kErrMFile;
  }
  const int fd = proc_->fds().Allocate(std::make_shared<Device>(kernel_, proc_, args...));
  trace.set_result(fd);
  return fd;
}

int Sys::OpenDevPoll(DevPollOptions options) {
  return OpenDevice<DevPollDevice>("open_devpoll", options);
}

std::shared_ptr<DevPollDevice> Sys::devpoll(int dpfd) {
  return std::dynamic_pointer_cast<DevPollDevice>(proc_->fds().Get(dpfd));
}

long Sys::DevPollWrite(int dpfd, std::span<const PollFd> updates) {
  auto device = devpoll(dpfd);
  return device == nullptr ? -1 : device->Write(updates);
}

int Sys::DevPollAlloc(int dpfd, int nfds) {
  auto device = devpoll(dpfd);
  return device == nullptr ? -1 : device->IoctlDpAlloc(nfds);
}

PollFd* Sys::DevPollMmap(int dpfd) {
  auto device = devpoll(dpfd);
  return device == nullptr ? nullptr : device->Mmap();
}

int Sys::DevPollMunmap(int dpfd) {
  auto device = devpoll(dpfd);
  return device == nullptr ? -1 : device->Munmap();
}

int Sys::DevPollPoll(int dpfd, DvPoll* args) {
  auto device = devpoll(dpfd);
  return device == nullptr ? -1 : device->IoctlDpPoll(args);
}

int Sys::DevPollWritePoll(int dpfd, std::span<const PollFd> updates, DvPoll* args) {
  auto device = devpoll(dpfd);
  return device == nullptr ? -1 : device->IoctlDpWritePoll(updates, args);
}

int Sys::OpenEpoll() { return OpenDevice<EpollDevice>("epoll_create"); }

std::shared_ptr<EpollDevice> Sys::epoll_dev(int epfd) {
  return std::dynamic_pointer_cast<EpollDevice>(proc_->fds().Get(epfd));
}

int Sys::EpollCtl(int epfd, EpollOp op, int fd, PollEvents events, uint16_t flags) {
  auto device = epoll_dev(epfd);
  return device == nullptr ? -1 : device->Ctl(op, fd, events, flags);
}

int Sys::EpollWait(int epfd, PollFd* out, int max, int timeout_ms) {
  auto device = epoll_dev(epfd);
  return device == nullptr ? -1 : device->Wait(out, max, timeout_ms);
}

int Sys::OpenKqueue() { return OpenDevice<KqueueDevice>("kqueue"); }

std::shared_ptr<KqueueDevice> Sys::kqueue_dev(int kqfd) {
  return std::dynamic_pointer_cast<KqueueDevice>(proc_->fds().Get(kqfd));
}

int Sys::Kevent(int kqfd, std::span<const KEvent> changes, std::span<KEvent> events,
                int timeout_ms) {
  auto device = kqueue_dev(kqfd);
  return device == nullptr ? -1 : device->Kevent(changes, events, timeout_ms);
}

int Sys::InstallFile(std::shared_ptr<File> file) {
  SyscallTraceScope trace(kernel_, "install_fd");
  ++kernel_->stats().syscalls;
  kernel_->Charge(kernel_->cost().syscall_entry, ChargeCat::kSyscallEntry);
  const int fd = proc_->fds().Allocate(std::move(file));
  trace.set_result(fd);
  return fd;
}

std::shared_ptr<SimListener> Sys::listener(int fd) {
  return std::dynamic_pointer_cast<SimListener>(proc_->fds().Get(fd));
}

std::shared_ptr<SimSocket> Sys::socket(int fd) {
  return std::dynamic_pointer_cast<SimSocket>(proc_->fds().Get(fd));
}

}  // namespace scio
