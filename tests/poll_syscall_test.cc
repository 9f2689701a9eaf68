// Tests for the classic poll(2) implementation and its cost accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tests/sim_world.h"

namespace scio {
namespace {

class PollSyscallTest : public SimWorldTest {};

TEST_F(PollSyscallTest, ReportsListenerReadable) {
  ClientConnect();
  PollFd pfd{listen_fd_, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 0), 1);
  EXPECT_EQ(pfd.revents & kPollIn, kPollIn);
}

TEST_F(PollSyscallTest, TimeoutZeroNeverBlocks) {
  PollFd pfd{listen_fd_, kPollIn, 0};
  const SimTime before = kernel_.now();
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 0), 0);
  EXPECT_LT(kernel_.now() - before, Millis(1));
}

TEST_F(PollSyscallTest, BlocksUntilEvent) {
  sim_.ScheduleAt(Millis(30), [&] { net_.Connect(listener_); });
  PollFd pfd{listen_fd_, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 1000), 1);
  EXPECT_GE(kernel_.now(), Millis(30));
  EXPECT_LT(kernel_.now(), Millis(100));
}

TEST_F(PollSyscallTest, BlocksUntilTimeout) {
  PollFd pfd{listen_fd_, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 40), 0);
  EXPECT_GE(kernel_.now(), Millis(40));
}

TEST_F(PollSyscallTest, BadFdReportsNval) {
  PollFd pfd{77, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 0), 1) << "POLLNVAL counts as ready, as in Linux";
  EXPECT_EQ(pfd.revents, kPollNval);
}

TEST_F(PollSyscallTest, NegativeFdIgnored) {
  PollFd pfd{-1, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 0), 0);
  EXPECT_EQ(pfd.revents, 0);
}

// A file whose readiness the test sets directly.
class SettableFile : public File {
 public:
  explicit SettableFile(SimKernel* kernel) : File(kernel) {}
  PollEvents PollMask() const override { return mask_; }
  void SetMask(PollEvents mask) { mask_ = mask; }

 private:
  PollEvents mask_ = 0;
};

TEST_F(PollSyscallTest, FileTurningReadyMidScanIsReportedBySameCall) {
  // The driver charges of a scan are folded into runs; the runs stop at the
  // event horizon, so a file that turns ready while the scan is still on an
  // earlier fd is polled after the change, exactly as with one charge per fd.
  constexpr int kFiles = 30;
  std::vector<std::shared_ptr<SettableFile>> files;
  std::vector<PollFd> pfds;
  for (int i = 0; i < kFiles; ++i) {
    files.push_back(std::make_shared<SettableFile>(&kernel_));
    pfds.push_back({sys_.InstallFile(files.back()), kPollIn, 0});
    ASSERT_GE(pfds.back().fd, 0);
  }
  const CostModel& cost = kernel_.cost();
  const SimDuration unit = kernel_.Scaled(cost.poll_driver_poll_per_fd);
  const SimTime scan_start =
      kernel_.now() + kernel_.pending_interrupt_debt() +
      kernel_.Scaled(cost.syscall_entry + cost.poll_copyin_per_fd * kFiles);
  sim_.ScheduleAt(scan_start + unit + unit / 2, [&] { files.back()->SetMask(kPollIn); });
  EXPECT_EQ(sys_.Poll(pfds, 0), 1);
  EXPECT_EQ(pfds.back().revents, kPollIn);
  EXPECT_EQ(kernel_.stats().poll_driver_calls, static_cast<uint64_t>(kFiles));
}

TEST_F(PollSyscallTest, ErrHupAlwaysReported) {
  auto [client, fd] = EstablishedPair();
  client->Close();
  RunFor(Millis(5));
  PollFd pfd{fd, 0, 0};  // no requested events at all
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 0), 1);
  EXPECT_EQ(pfd.revents & kPollHup, kPollHup);
}

TEST_F(PollSyscallTest, EveryScanCallsEveryDriver) {
  std::vector<PollFd> pfds;
  pfds.push_back({listen_fd_, kPollIn, 0});
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> conns;
  for (int i = 0; i < 9; ++i) {
    conns.push_back(EstablishedPair());
    pfds.push_back({conns.back().second, kPollIn, 0});
  }
  const uint64_t before = kernel_.stats().poll_driver_calls;
  conns[0].first->Write(Chunk{"x", 0});
  RunFor(Millis(5));
  EXPECT_EQ(sys_.Poll(pfds, 0), 1);
  EXPECT_EQ(kernel_.stats().poll_driver_calls, before + 10)
      << "stock poll has no hints: all 10 drivers polled";
}

TEST_F(PollSyscallTest, WaitQueueChurnAccountedWhenBlocking) {
  std::vector<PollFd> pfds;
  pfds.push_back({listen_fd_, kPollIn, 0});
  for (int i = 0; i < 4; ++i) {
    auto [client, fd] = EstablishedPair();
    pfds.push_back({fd, kPollIn, 0});
  }
  const uint64_t adds_before = kernel_.stats().poll_waitqueue_adds;
  sim_.ScheduleAt(kernel_.now() + Millis(10), [&] { net_.Connect(listener_); });
  EXPECT_EQ(sys_.Poll(pfds, 1000), 1) << "the scheduled connect wakes the poll";
  EXPECT_EQ(kernel_.stats().poll_waitqueue_adds, adds_before + 5)
      << "one waiter per polled fd per sleep";
  EXPECT_EQ(kernel_.stats().poll_waitqueue_removes, adds_before + 5);
}

TEST_F(PollSyscallTest, NoWaitQueueChurnWhenImmediatelyReady) {
  ClientConnect();
  PollFd pfd{listen_fd_, kPollIn, 0};
  const uint64_t before = kernel_.stats().poll_waitqueue_adds;
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 1000), 1);
  EXPECT_EQ(kernel_.stats().poll_waitqueue_adds, before)
      << "ready on first scan: never slept";
}

TEST_F(PollSyscallTest, WaitQueueChargesCanBeDisabled) {
  PollSyscallOptions options;
  options.charge_waitqueue = false;
  PollSyscall cheap(&kernel_, &proc_, options);
  PollFd pfd{listen_fd_, kPollIn, 0};
  const SimDuration busy_before = kernel_.busy_time();
  EXPECT_EQ(cheap.Poll({&pfd, 1}, 10), 0);  // sleeps, times out
  PollSyscall normal(&kernel_, &proc_, PollSyscallOptions{});
  const SimDuration cheap_cost = kernel_.busy_time() - busy_before;
  const SimDuration busy_mid = kernel_.busy_time();
  EXPECT_EQ(normal.Poll({&pfd, 1}, 10), 0);
  const SimDuration normal_cost = kernel_.busy_time() - busy_mid;
  EXPECT_GT(normal_cost, cheap_cost) << "ABL-6 knob changes the charge";
  // The waiters are still real either way (correctness unchanged).
  EXPECT_GT(kernel_.stats().poll_waitqueue_adds, 0u);
}

TEST_F(PollSyscallTest, MultipleReadyReportedTogether) {
  std::vector<PollFd> pfds;
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> conns;
  for (int i = 0; i < 5; ++i) {
    conns.push_back(EstablishedPair());
    pfds.push_back({conns.back().second, kPollIn | kPollOut, 0});
  }
  conns[1].first->Write(Chunk{"x", 0});
  conns[3].first->Write(Chunk{"y", 0});
  RunFor(Millis(5));
  // All are writable; 1 and 3 also readable.
  EXPECT_EQ(sys_.Poll(pfds, 0), 5);
  EXPECT_EQ(pfds[1].revents & kPollIn, kPollIn);
  EXPECT_EQ(pfds[3].revents & kPollIn, kPollIn);
  EXPECT_EQ(pfds[0].revents, kPollOut);
}

}  // namespace
}  // namespace scio
