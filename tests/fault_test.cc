// Tests for the deterministic fault-injection plane: window gating, seeded
// determinism, direction filtering, and the kernel/net integration points
// (forced RT-queue shrink, /dev/poll ENOMEM, latency spikes on the wire,
// EINTR in the wait protocol the five blocking waits share).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/fault/fault_plane.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

TEST(FaultPlaneTest, EmptyScheduleInjectsNothing) {
  Simulator sim;
  FaultPlane plane(&sim, FaultSchedule{});
  EXPECT_FALSE(plane.InjectAcceptEmfile());
  EXPECT_FALSE(plane.InjectOpenEmfile());
  EXPECT_FALSE(plane.InjectInterestEnomem());
  EXPECT_FALSE(plane.InjectEintr());
  EXPECT_FALSE(plane.RtQueueCap().has_value());
  const FaultPlane::TransmitFault hit = plane.OnTransmit(true);
  EXPECT_EQ(hit.extra_delay, 0);
  EXPECT_EQ(hit.hold_until, 0);
}

TEST(FaultPlaneTest, WindowIsHalfOpen) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.Add({FaultKind::kAcceptEmfile, Millis(10), Millis(20), 1.0, 0,
                LinkDir::kBoth});
  FaultPlane plane(&sim, schedule);
  EXPECT_FALSE(plane.InjectAcceptEmfile()) << "before the window";
  sim.AdvanceTo(Millis(10));
  EXPECT_TRUE(plane.InjectAcceptEmfile()) << "start is inclusive";
  sim.AdvanceTo(Millis(20));
  EXPECT_FALSE(plane.InjectAcceptEmfile()) << "end is exclusive";
  EXPECT_EQ(plane.stats().accept_emfile_injected, 1u);
}

TEST(FaultPlaneTest, RtQueueCapOnlyInsideWindow) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.Add({FaultKind::kRtQueueShrink, Millis(5), Millis(15), 1.0, 16,
                LinkDir::kBoth});
  FaultPlane plane(&sim, schedule);
  EXPECT_FALSE(plane.RtQueueCap().has_value());
  sim.AdvanceTo(Millis(5));
  ASSERT_TRUE(plane.RtQueueCap().has_value());
  EXPECT_EQ(*plane.RtQueueCap(), 16u);
  sim.AdvanceTo(Millis(15));
  EXPECT_FALSE(plane.RtQueueCap().has_value());
}

TEST(FaultPlaneTest, SameSeedSameDecisions) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.Add({FaultKind::kEintr, 0, kSimTimeNever, 0.5, 0, LinkDir::kBoth});
  FaultPlane a(&sim, schedule);
  FaultPlane b(&sim, schedule);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    const bool hit = a.InjectEintr();
    EXPECT_EQ(hit, b.InjectEintr()) << "draw " << i;
    fired += hit ? 1 : 0;
  }
  // p=0.5 over 200 draws: both outcomes must occur, or determinism is vacuous.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);
}

TEST(FaultPlaneTest, DirectionFilterAppliesLossOneWay) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.Add({FaultKind::kPacketLoss, 0, kSimTimeNever, 1.0,
                static_cast<double>(Millis(3)), LinkDir::kToServer});
  FaultPlane plane(&sim, schedule);
  EXPECT_FALSE(plane.OnTransmit(/*toward_server=*/false).lost);
  const FaultPlane::TransmitFault hit = plane.OnTransmit(/*toward_server=*/true);
  EXPECT_TRUE(hit.lost) << "loss faults now drop the frame";
  EXPECT_EQ(hit.loss_penalty, Millis(3))
      << "legacy reliable-pipe consumers deliver late by the penalty instead";
  EXPECT_EQ(hit.extra_delay, 0);
  EXPECT_EQ(plane.stats().packets_lost, 1u);
}

TEST(FaultPlaneTest, FlapHoldsUntilWindowCloses) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.Add({FaultKind::kLinkFlap, 0, Millis(10), 1.0, 0, LinkDir::kBoth});
  FaultPlane plane(&sim, schedule);
  const FaultPlane::TransmitFault hit = plane.OnTransmit(true);
  EXPECT_EQ(hit.hold_until, Millis(10)) << "held until the link comes back";
  EXPECT_EQ(plane.stats().packets_flap_held, 1u);
}

// --- integration with the kernel and the wire -------------------------------------

class FaultWorldTest : public SimWorldTest {};

TEST_F(FaultWorldTest, RtQueueShrinkShedsSignalsAndRaisesSigIo) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kRtQueueShrink, 0, kSimTimeNever, 1.0, 2,
                LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);
  auto [client, fd] = EstablishedPair();
  ASSERT_EQ(sys_.ArmAsync(fd, kSigRtMin + 1), 0);
  for (int i = 0; i < 5; ++i) {
    client->Write(Chunk{"x", 0});
  }
  RunFor(Millis(10));
  EXPECT_EQ(proc_.rt_queue_length(), 2u) << "capped well below rt_queue_max";
  EXPECT_GT(plane.stats().rt_signals_shed, 0u);
  EXPECT_TRUE(proc_.sigio_pending()) << "shedding announces itself as overflow";
}

TEST_F(FaultWorldTest, InterestEnomemFailsDevPollWriteWithoutMutating) {
  const int dpfd = sys_.OpenDevPoll();
  ASSERT_GE(dpfd, 0);
  auto [client, fd] = EstablishedPair();

  FaultSchedule schedule;
  schedule.Add({FaultKind::kInterestEnomem, 0, kSimTimeNever, 1.0, 0,
                LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);

  PollFd add{fd, kPollIn, 0};
  EXPECT_EQ(sys_.DevPollWrite(dpfd, {&add, 1}), kErrNoMem);
  EXPECT_EQ(plane.stats().interest_enomem_injected, 1u);

  // The failure was atomic: once the window lifts, retrying the identical
  // batch succeeds and the interest set holds exactly that one entry.
  kernel_.set_fault_plane(nullptr);
  EXPECT_GT(sys_.DevPollWrite(dpfd, {&add, 1}), 0);
  client->Write(Chunk{"x", 0});
  RunFor(Millis(5));
  std::vector<PollFd> buffer(4);
  DvPoll args;
  args.dp_fds = buffer.data();
  args.dp_nfds = static_cast<int>(buffer.size());
  args.dp_timeout = 0;
  EXPECT_EQ(sys_.DevPollPoll(dpfd, &args), 1);
  EXPECT_EQ(buffer[0].fd, fd);
}

TEST_F(FaultWorldTest, LatencySpikeDelaysDelivery) {
  auto [client, fd] = EstablishedPair();  // handshake at base latency

  FaultSchedule schedule;
  schedule.Add({FaultKind::kLatencySpike, 0, kSimTimeNever, 1.0,
                static_cast<double>(Millis(5)), LinkDir::kToServer});
  FaultPlane plane(&sim_, schedule);
  net_.InstallFaultPlane(&plane);

  client->Write(Chunk{"x", 0});
  RunFor(Millis(1));
  EXPECT_EQ(sys_.Read(fd, 100).n, 0u) << "still on the wire during the spike";
  RunFor(Millis(6));
  EXPECT_EQ(sys_.Read(fd, 100).n, 1u);
  EXPECT_GE(plane.stats().packets_spiked, 1u);
}

TEST_F(FaultWorldTest, EintrInjectionSurfacesFromPoll) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kEintr, 0, kSimTimeNever, 1.0, 0, LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);
  PollFd pfd{listen_fd_, kPollIn, 0};
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 50), kErrIntr);
  EXPECT_GT(plane.stats().eintr_injected, 0u);
}

// Window boundaries meeting a wait deadline exactly. Injection is consulted
// at wake time (after the blocking wait returns), so a poll whose deadline
// lands precisely on the window's open instant is interrupted, while one
// whose deadline lands precisely on the close instant times out cleanly —
// the [start, end) contract observed from inside a sleeping syscall.
TEST_F(FaultWorldTest, EintrWindowOpeningExactlyAtPollDeadlineInterrupts) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kEintr, Millis(10), Millis(20), 1.0, 0, LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);
  PollFd pfd{listen_fd_, kPollIn, 0};
  // Sleeps from ~0 and wakes at its deadline, t = 10ms — the first instant
  // the window is active.
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 10), kErrIntr);
  EXPECT_EQ(plane.stats().eintr_injected, 1u);
}

TEST_F(FaultWorldTest, EintrWindowClosingExactlyAtPollDeadlineTimesOut) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kEintr, 0, Millis(10), 1.0, 0, LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);
  PollFd pfd{listen_fd_, kPollIn, 0};
  // The entire sleep lies inside the window, but the wake happens at t = 10ms
  // — the first instant it is NOT active (end exclusive) — so no EINTR.
  EXPECT_EQ(sys_.Poll({&pfd, 1}, 10), 0);
  EXPECT_EQ(plane.stats().eintr_injected, 0u);
}

TEST_F(FaultWorldTest, AcceptEmfileLeavesConnectionRetryable) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kAcceptEmfile, 0, Millis(10), 1.0, 0, LinkDir::kBoth});
  FaultPlane plane(&sim_, schedule);
  kernel_.set_fault_plane(&plane);
  ClientConnect();
  EXPECT_EQ(sys_.Accept(listen_fd_), kErrMFile);
  EXPECT_EQ(listener_->backlog_depth(), 1u)
      << "an injected EMFILE leaves the connection queued, unlike a real one";
  sim_.AdvanceTo(Millis(10));  // the window lifts
  EXPECT_GE(sys_.Accept(listen_fd_), 0) << "the same connection is retryable";
}

// --- one wait protocol across the five blocking interfaces -------------------------

// poll(), DP_POLL, epoll_wait, kevent and sigwaitinfo all sleep through
// SimKernel::WaitFor, so the same four cases must hold for each. Every row
// watches the fixture's listener, which no client connects to, so nothing is
// ever ready.
enum class WaitIface { kPoll, kDevPoll, kEpoll, kKqueue, kSigWaitInfo };

std::string WaitIfaceName(const ::testing::TestParamInfo<WaitIface>& info) {
  static const char* const kNames[] = {"poll", "devpoll", "epoll", "kqueue", "sigwaitinfo"};
  return kNames[static_cast<int>(info.param)];
}

class WaitProtocolTest : public SimWorldTest,
                         public ::testing::WithParamInterface<WaitIface> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case WaitIface::kPoll:
        break;
      case WaitIface::kDevPoll: {
        // Hints off: the listener then needs a wait-queue entry per sleep,
        // so the waiter checks below see DP_POLL's own registration.
        DevPollOptions options;
        options.hints_enabled = false;
        fd_ = sys_.OpenDevPoll(options);
        const PollFd add{listen_fd_, kPollIn, 0};
        ASSERT_GT(sys_.DevPollWrite(fd_, {&add, 1}), 0);
        break;
      }
      case WaitIface::kEpoll:
        fd_ = sys_.OpenEpoll();
        ASSERT_EQ(sys_.EpollCtl(fd_, EpollOp::kAdd, listen_fd_, kPollIn), 0);
        break;
      case WaitIface::kKqueue: {
        fd_ = sys_.OpenKqueue();
        const KEvent add{listen_fd_, kFiltRead, kEvAdd, 0};
        ASSERT_EQ(sys_.Kevent(fd_, {&add, 1}, {}, 0), 0);
        break;
      }
      case WaitIface::kSigWaitInfo:
        ASSERT_EQ(sys_.ArmAsync(listen_fd_, kSigRtMin + 1), 0);
        break;
    }
  }

  // One blocking wait. sigwaitinfo() reports an EINTR through its error
  // out-parameter; its other empty results (timeout, stop) read as 0.
  int Wait(int timeout_ms) {
    PollFd results[4];
    switch (GetParam()) {
      case WaitIface::kPoll:
        results[0] = PollFd{listen_fd_, kPollIn, 0};
        return sys_.Poll({results, 1}, timeout_ms);
      case WaitIface::kDevPoll: {
        DvPoll args;
        args.dp_fds = results;
        args.dp_nfds = 4;
        args.dp_timeout = timeout_ms;
        return sys_.DevPollPoll(fd_, &args);
      }
      case WaitIface::kEpoll:
        return sys_.EpollWait(fd_, results, 4, timeout_ms);
      case WaitIface::kKqueue: {
        KEvent events[4];
        return sys_.Kevent(fd_, {}, events, timeout_ms);
      }
      case WaitIface::kSigWaitInfo: {
        int error = 0;
        return sys_.SigWaitInfo(timeout_ms, &error).has_value() ? 1 : error;
      }
    }
    return -1;
  }

  // Every wait from here on is interrupted once it has slept.
  void OpenEintrWindow() {
    FaultSchedule schedule;
    schedule.Add({FaultKind::kEintr, 0, kSimTimeNever, 1.0, 0, LinkDir::kBoth});
    plane_ = std::make_unique<FaultPlane>(&sim_, schedule);
    kernel_.set_fault_plane(plane_.get());
  }

  uint64_t waiters_added() { return kernel_.stats().poll_waitqueue_adds; }
  uint64_t waiters_removed() { return kernel_.stats().poll_waitqueue_removes; }

  int fd_ = -1;
  std::unique_ptr<FaultPlane> plane_;
};

TEST_P(WaitProtocolTest, ZeroTimeoutReturnsAtOnceWithoutAWaiter) {
  OpenEintrWindow();
  const SimTime start = kernel_.now();
  EXPECT_EQ(Wait(0), 0);
  EXPECT_LT(kernel_.now(), start + Millis(1)) << "only the syscall's own charges";
  EXPECT_EQ(waiters_added(), 0u);
  EXPECT_EQ(plane_->stats().eintr_injected, 0u) << "EINTR is drawn only after a sleep";
}

TEST_P(WaitProtocolTest, TimeoutReturnsZeroNoEarlierThanTheDeadline) {
  const SimTime start = kernel_.now();
  EXPECT_EQ(Wait(10), 0);
  EXPECT_GE(kernel_.now(), start + Millis(10));
  EXPECT_EQ(waiters_removed(), waiters_added());
}

TEST_P(WaitProtocolTest, StoppedKernelReturnsWithoutSleeping) {
  OpenEintrWindow();
  kernel_.RequestStop();
  const SimTime start = kernel_.now();
  EXPECT_EQ(Wait(50), 0);
  EXPECT_LT(kernel_.now(), start + Millis(1));
  EXPECT_EQ(waiters_added(), 0u);
  EXPECT_EQ(plane_->stats().eintr_injected, 0u);
}

TEST_P(WaitProtocolTest, EintrReturnsAfterOneSleep) {
  OpenEintrWindow();
  const SimTime start = kernel_.now();
  EXPECT_EQ(Wait(10), kErrIntr);
  EXPECT_GE(kernel_.now(), start + Millis(10)) << "slept to the deadline first";
  EXPECT_EQ(plane_->stats().eintr_injected, 1u);
  // One sleep: one registration (none for the signal wait, whose queued
  // signal wakes the process itself), unregistered before EINTR returns.
  EXPECT_EQ(waiters_added(), GetParam() == WaitIface::kSigWaitInfo ? 0u : 1u);
  EXPECT_EQ(waiters_removed(), waiters_added());
}

INSTANTIATE_TEST_SUITE_P(AllWaits, WaitProtocolTest,
                         ::testing::Values(WaitIface::kPoll, WaitIface::kDevPoll,
                                           WaitIface::kEpoll, WaitIface::kKqueue,
                                           WaitIface::kSigWaitInfo),
                         WaitIfaceName);

}  // namespace
}  // namespace scio
