// BackmapLink: one entry of a socket's backmapping list (paper §3.2).
//
// "The /dev/poll implementation maintains this information in a backmapping
// list. When an event occurs, the driver marks the appropriate file
// descriptor for each process in its backmapping list."
//
// A link registers itself on the file's status-listener list and forwards
// two things to the DevPollDevice that owns it: state changes (which set the
// interest's hint) and closes of a descriptor holding the file (which end
// the interest's idleness without a hint). It is held by the Interest it
// serves through a BackmapLinkPtr, whose deleter unregisters the link (if
// the file is still alive; an expired weak_ptr makes that a no-op) and hands
// it back to the device, which reuses it for the next interest it binds: a
// connection's link costs no allocation once the device has seen its peak.

#ifndef SRC_CORE_BACKMAP_H_
#define SRC_CORE_BACKMAP_H_

#include <memory>
#include <utility>

#include "src/kernel/file.h"

namespace scio {

class DevPollDevice;

class BackmapLink : public StatusListener {
 public:
  explicit BackmapLink(DevPollDevice* device) : device_(device) {}
  ~BackmapLink() override { Disarm(); }

  // Register for interest `fd` on `file`'s listener list.
  void Arm(int fd, std::weak_ptr<File> file) {
    fd_ = fd;
    file_ = std::move(file);
    if (auto f = file_.lock()) {
      f->AddStatusListener(this);
    }
  }

  // Unregister, if the file is still alive, and let go of it.
  void Disarm() {
    if (auto f = file_.lock()) {
      f->RemoveStatusListener(this);
    }
    file_.reset();
    fd_ = -1;
  }

  // Defined in devpoll.cc, next to the device methods they call.
  void OnFileStatus(File& file, PollEvents mask) override;
  void OnDescriptorClosed(File& file) override;

  DevPollDevice* device() const { return device_; }
  int fd() const { return fd_; }

 private:
  DevPollDevice* device_;
  int fd_ = -1;
  std::weak_ptr<File> file_;
};

// Returns a link to its device (DevPollDevice::RecycleLink) instead of
// freeing it. Stateless, so a BackmapLinkPtr is one pointer wide.
struct BackmapLinkRecycler {
  void operator()(BackmapLink* link) const;
};
using BackmapLinkPtr = std::unique_ptr<BackmapLink, BackmapLinkRecycler>;

}  // namespace scio

#endif  // SRC_CORE_BACKMAP_H_
