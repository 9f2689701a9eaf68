#include "src/kernel/fd_table.h"

#include <utility>

namespace scio {

int FdTable::Allocate(std::shared_ptr<File> file) {
  const long fd = slots_.AllocateLowest();
  if (fd < 0) {
    // sciolint: allow(E2) -- pinned -1 API; Sys::Accept maps this to kErrMFile
    return -1;
  }
  file->set_fd_number(static_cast<int>(fd));
  slots_.At(static_cast<size_t>(fd)) = std::move(file);
  return static_cast<int>(fd);
}

std::shared_ptr<File> FdTable::Get(int fd) const {
  if (fd < 0 || !slots_.Contains(static_cast<size_t>(fd))) {
    return nullptr;
  }
  return slots_.At(static_cast<size_t>(fd));
}

int FdTable::Close(int fd) {
  std::shared_ptr<File> file = Get(fd);
  if (file == nullptr) {
    // sciolint: allow(E2) -- pinned -1 API (EBADF); Sys layer owns errno codes
    return -1;
  }
  slots_.At(static_cast<size_t>(fd)).reset();
  slots_.ReleaseAt(static_cast<size_t>(fd));
  file->NotifyDescriptorClosed();
  file->OnFdClose();
  return 0;
}

std::vector<int> FdTable::OpenFds() const {
  std::vector<int> fds;
  fds.reserve(slots_.size());
  ForEachOpenFd([&fds](int fd, const std::shared_ptr<File>&) { fds.push_back(fd); });
  return fds;
}

}  // namespace scio
