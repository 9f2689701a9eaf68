// BackmapLink: one entry of a socket's backmapping list (paper §3.2).
//
// "The /dev/poll implementation maintains this information in a backmapping
// list. When an event occurs, the driver marks the appropriate file
// descriptor for each process in its backmapping list."
//
// A link registers itself on the file's status-listener list and forwards
// two things to the DevPollDevice that owns it: state changes (which set the
// interest's hint) and closes of a descriptor holding the file (which end
// the interest's idleness without a hint). It is owned by the Interest it
// serves and unregisters itself on destruction if the file is still alive;
// if the file dies first, the expired weak_ptr makes unregistration a no-op.

#ifndef SRC_CORE_BACKMAP_H_
#define SRC_CORE_BACKMAP_H_

#include <memory>
#include <utility>

#include "src/kernel/file.h"

namespace scio {

class DevPollDevice;

class BackmapLink : public StatusListener {
 public:
  BackmapLink(DevPollDevice* device, int fd, std::weak_ptr<File> file)
      : device_(device), fd_(fd), file_(std::move(file)) {
    if (auto f = file_.lock()) {
      f->AddStatusListener(this);
    }
  }

  ~BackmapLink() override {
    if (auto f = file_.lock()) {
      f->RemoveStatusListener(this);
    }
  }

  // Defined in devpoll.cc, next to the device methods they call.
  void OnFileStatus(File& file, PollEvents mask) override;
  void OnDescriptorClosed(File& file) override;

  int fd() const { return fd_; }

 private:
  DevPollDevice* device_;
  int fd_;
  std::weak_ptr<File> file_;
};

}  // namespace scio

#endif  // SRC_CORE_BACKMAP_H_
