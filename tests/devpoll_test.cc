// Tests for the /dev/poll device (§3): interest-set semantics, POLLREMOVE,
// Solaris OR-compatibility, the mmap result area, driver hints, and hint-
// cache coherence as a randomized property against a full-scan oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/sim/rng.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

class DevPollTest : public SimWorldTest {
 protected:
  int Open(DevPollOptions options = DevPollOptions{}) {
    dpfd_ = sys_.OpenDevPoll(options);
    EXPECT_GE(dpfd_, 0);
    device_ = sys_.devpoll(dpfd_);
    return dpfd_;
  }

  long WriteOne(int fd, PollEvents events) {
    PollFd update{fd, events, 0};
    return sys_.DevPollWrite(dpfd_, {&update, 1});
  }

  // Non-blocking DP_POLL into a local buffer; returns (fd -> revents).
  std::map<int, PollEvents> PollNow(int max = 64) {
    std::vector<PollFd> buffer(static_cast<size_t>(max));
    DvPoll args;
    args.dp_fds = buffer.data();
    args.dp_nfds = max;
    args.dp_timeout = 0;
    const int n = sys_.DevPollPoll(dpfd_, &args);
    std::map<int, PollEvents> results;
    for (int i = 0; i < n; ++i) {
      results[buffer[static_cast<size_t>(i)].fd] = buffer[static_cast<size_t>(i)].revents;
    }
    return results;
  }

  int dpfd_ = -1;
  std::shared_ptr<DevPollDevice> device_;
};

TEST_F(DevPollTest, EmptySetPollsEmpty) {
  Open();
  EXPECT_TRUE(PollNow().empty());
}

TEST_F(DevPollTest, ListenerBecomesReadableOnSyn) {
  Open();
  WriteOne(listen_fd_, kPollIn);
  EXPECT_TRUE(PollNow().empty());
  ClientConnect();
  auto results = PollNow();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[listen_fd_] & kPollIn, kPollIn);
}

TEST_F(DevPollTest, WriteReturnsByteCount) {
  Open();
  PollFd updates[2] = {{listen_fd_, kPollIn, 0}, {listen_fd_, kPollIn, 0}};
  EXPECT_EQ(sys_.DevPollWrite(dpfd_, updates),
            static_cast<long>(2 * sizeof(PollFd)));
}

TEST_F(DevPollTest, NegativeFdInUpdateIsError) {
  Open();
  PollFd bad{-1, kPollIn, 0};
  EXPECT_EQ(sys_.DevPollWrite(dpfd_, {&bad, 1}), -1);

  // A bad entry fails the whole batch before any update applies, so a
  // caller that retries the batch verbatim never half-applies it.
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  PollFd batch[3] = {{fd, kPollRemove, 0}, {listen_fd_, kPollIn, 0}, {-1, kPollIn, 0}};
  EXPECT_EQ(sys_.DevPollWrite(dpfd_, batch), -1);
  EXPECT_EQ(device_->interest_count(), 1u);
  ASSERT_NE(device_->FindInterest(fd), nullptr) << "the remove before the bad entry was applied";
  EXPECT_EQ(device_->FindInterest(fd)->events, kPollIn);
  EXPECT_EQ(device_->FindInterest(listen_fd_), nullptr)
      << "the add before the bad entry was applied";
}

TEST_F(DevPollTest, PollRemoveDeletesInterest) {
  Open();
  WriteOne(listen_fd_, kPollIn);
  EXPECT_EQ(device_->interest_count(), 1u);
  WriteOne(listen_fd_, kPollRemove);
  EXPECT_EQ(device_->interest_count(), 0u);
  ClientConnect();
  EXPECT_TRUE(PollNow().empty()) << "removed interest reports nothing";
}

TEST_F(DevPollTest, EventsFieldReplacesByDefault) {
  Open();
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  WriteOne(fd, kPollOut);
  const Interest* interest = device_->FindInterest(fd);
  ASSERT_NE(interest, nullptr);
  EXPECT_EQ(interest->events, kPollOut) << "paper §3.1: replace, not OR";
}

TEST_F(DevPollTest, SolarisModeOrsEvents) {
  DevPollOptions options;
  options.solaris_or_semantics = true;
  Open(options);
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  WriteOne(fd, kPollOut);
  const Interest* interest = device_->FindInterest(fd);
  ASSERT_NE(interest, nullptr);
  EXPECT_EQ(interest->events, kPollIn | kPollOut);
}

TEST_F(DevPollTest, MultipleIndependentSets) {
  const int dp1 = sys_.OpenDevPoll();
  const int dp2 = sys_.OpenDevPoll();
  PollFd update{listen_fd_, kPollIn, 0};
  ASSERT_EQ(sys_.DevPollWrite(dp1, {&update, 1}), static_cast<long>(sizeof(PollFd)));
  EXPECT_EQ(sys_.devpoll(dp1)->interest_count(), 1u);
  EXPECT_EQ(sys_.devpoll(dp2)->interest_count(), 0u)
      << "a process may open /dev/poll more than once (§3.1)";
}

TEST_F(DevPollTest, ClosedFdReportsPollNval) {
  Open();
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  ASSERT_EQ(sys_.Close(fd), 0);
  auto results = PollNow();
  ASSERT_EQ(results.count(fd), 1u);
  EXPECT_EQ(results[fd] & kPollNval, kPollNval);
}

TEST_F(DevPollTest, ReusedFdNumberRebindsToNewFile) {
  Open();
  auto [client1, fd1] = EstablishedPair();
  WriteOne(fd1, kPollIn);
  ASSERT_EQ(sys_.Close(fd1), 0);
  // The next accept reuses the fd number for a different connection.
  auto [client2, fd2] = EstablishedPair();
  ASSERT_EQ(fd2, fd1) << "test requires fd reuse";
  client2->Write(Chunk{"x", 0});
  RunFor(Millis(5));
  auto results = PollNow();
  ASSERT_EQ(results.count(fd2), 1u);
  EXPECT_EQ(results[fd2] & kPollIn, kPollIn) << "interest follows the fd number";
}

TEST_F(DevPollTest, MmapResultAreaDelivery) {
  Open();
  EXPECT_EQ(sys_.DevPollAlloc(dpfd_, 16), 0);
  PollFd* area = sys_.DevPollMmap(dpfd_);
  ASSERT_NE(area, nullptr);
  WriteOne(listen_fd_, kPollIn);
  ClientConnect();
  DvPoll args;
  args.dp_fds = nullptr;  // use the mapping
  args.dp_nfds = 16;
  args.dp_timeout = 0;
  const int n = sys_.DevPollPoll(dpfd_, &args);
  ASSERT_EQ(n, 1);
  EXPECT_EQ(area[0].fd, listen_fd_);
  EXPECT_EQ(area[0].revents & kPollIn, kPollIn);
  EXPECT_EQ(kernel_.stats().devpoll_results_mapped, 1u);
  EXPECT_EQ(kernel_.stats().devpoll_results_copied, 0u);
  EXPECT_EQ(sys_.DevPollMunmap(dpfd_), 0);
  EXPECT_EQ(sys_.DevPollMunmap(dpfd_), -1) << "double munmap";
}

TEST_F(DevPollTest, MmapPollWithoutMappingFails) {
  Open();
  DvPoll args;
  args.dp_fds = nullptr;
  args.dp_nfds = 4;
  args.dp_timeout = 0;
  EXPECT_EQ(sys_.DevPollPoll(dpfd_, &args), -1);
}

TEST_F(DevPollTest, DpAllocRejectsNonPositive) {
  Open();
  EXPECT_EQ(sys_.DevPollAlloc(dpfd_, 0), -1);
  EXPECT_EQ(sys_.DevPollAlloc(dpfd_, -5), -1);
  EXPECT_EQ(sys_.DevPollMmap(dpfd_), nullptr);
}

TEST_F(DevPollTest, ResultBufferCapacityRespected) {
  Open();
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.push_back(EstablishedPair());
    WriteOne(pairs.back().second, kPollIn);
    pairs.back().first->Write(Chunk{"x", 0});
  }
  RunFor(Millis(5));
  auto results = PollNow(/*max=*/3);
  EXPECT_EQ(results.size(), 3u) << "no more than dp_nfds results";
  // The rest are still ready on the next call.
  auto all = PollNow(/*max=*/16);
  EXPECT_EQ(all.size(), 6u);
}

TEST_F(DevPollTest, BlockingPollWakesOnHint) {
  Open();
  WriteOne(listen_fd_, kPollIn);
  sim_.ScheduleAt(Millis(20), [&] { net_.Connect(listener_); });
  std::vector<PollFd> buffer(4);
  DvPoll args;
  args.dp_fds = buffer.data();
  args.dp_nfds = 4;
  args.dp_timeout = 1000;
  const int n = sys_.DevPollPoll(dpfd_, &args);
  EXPECT_EQ(n, 1);
  EXPECT_GE(kernel_.now(), Millis(20));
  EXPECT_LT(kernel_.now(), Millis(100)) << "woken promptly, not at timeout";
}

TEST_F(DevPollTest, BlockingPollTimesOut) {
  Open();
  WriteOne(listen_fd_, kPollIn);
  std::vector<PollFd> buffer(4);
  DvPoll args;
  args.dp_fds = buffer.data();
  args.dp_nfds = 4;
  args.dp_timeout = 50;
  EXPECT_EQ(sys_.DevPollPoll(dpfd_, &args), 0);
  EXPECT_GE(kernel_.now(), Millis(50));
}

TEST_F(DevPollTest, HintsAvoidDriverCallsForIdleInterests) {
  Open();
  // Establish 20 idle connections plus 1 active.
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> idle;
  for (int i = 0; i < 20; ++i) {
    idle.push_back(EstablishedPair());
    WriteOne(idle.back().second, kPollIn);
  }
  PollNow();  // first scan polls everyone once (initial hint set)
  const uint64_t baseline = kernel_.stats().devpoll_driver_calls;
  PollNow();
  PollNow();
  const uint64_t after = kernel_.stats().devpoll_driver_calls;
  EXPECT_EQ(after, baseline) << "idle, hint-less interests skip the driver";
  EXPECT_GE(kernel_.stats().devpoll_driver_calls_avoided, 40u);
}

TEST_F(DevPollTest, CachedReadyResultsAreRecheckedEveryScan) {
  Open();
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  client->Write(Chunk{"data", 0});
  RunFor(Millis(5));
  auto r1 = PollNow();
  EXPECT_EQ(r1[fd] & kPollIn, kPollIn);
  const uint64_t rechecks_before = kernel_.stats().devpoll_cached_ready_rechecks;
  auto r2 = PollNow();
  EXPECT_EQ(r2[fd] & kPollIn, kPollIn);
  EXPECT_GT(kernel_.stats().devpoll_cached_ready_rechecks, rechecks_before)
      << "§3.2: a cached result indicating readiness is reevaluated each time";
  // Drain: the recheck must observe not-ready even with no new hint.
  EXPECT_GT(sys_.Read(fd, 100).n, 0u);
  auto r3 = PollNow();
  EXPECT_EQ(r3.count(fd), 0u) << "ready -> not-ready transition caught by recheck";
}

TEST_F(DevPollTest, HintsDisabledPollsEveryInterestEveryScan) {
  DevPollOptions options;
  options.hints_enabled = false;
  Open(options);
  for (int i = 0; i < 5; ++i) {
    auto [client, fd] = EstablishedPair();
    WriteOne(fd, kPollIn);
    (void)client;
  }
  const uint64_t before = kernel_.stats().devpoll_driver_calls;
  PollNow();
  PollNow();
  EXPECT_EQ(kernel_.stats().devpoll_driver_calls, before + 10u);
  EXPECT_EQ(kernel_.stats().devpoll_hints_set, 0u);
}

TEST_F(DevPollTest, FusedWritePollMatchesSeparateCalls) {
  Open();
  auto [client, fd] = EstablishedPair();
  client->Write(Chunk{"go", 0});
  RunFor(Millis(5));
  PollFd update{fd, kPollIn, 0};
  std::vector<PollFd> buffer(4);
  DvPoll args;
  args.dp_fds = buffer.data();
  args.dp_nfds = 4;
  args.dp_timeout = 0;
  const uint64_t syscalls_before = kernel_.stats().syscalls;
  const int n = sys_.DevPollWritePoll(dpfd_, {&update, 1}, &args);
  EXPECT_EQ(kernel_.stats().syscalls, syscalls_before + 1) << "one trap, two ops";
  ASSERT_EQ(n, 1);
  EXPECT_EQ(buffer[0].fd, fd);
  EXPECT_EQ(buffer[0].revents & kPollIn, kPollIn);
}

TEST_F(DevPollTest, DevPollFdIsItselfPollable) {
  Open();
  WriteOne(listen_fd_, kPollIn);
  PollNow();  // settle: nothing ready, hints clear
  EXPECT_EQ(device_->PollMask(), 0);
  ClientConnect();
  EXPECT_EQ(device_->PollMask(), kPollIn) << "pending hint implies readable";
}

TEST_F(DevPollTest, CloseDestroysInterestSet) {
  Open();
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  auto server_sock = sys_.socket(fd);
  EXPECT_EQ(server_sock->status_listener_count(), 1u);
  ASSERT_EQ(sys_.Close(dpfd_), 0);
  EXPECT_EQ(server_sock->status_listener_count(), 0u)
      << "backmap links unregistered when the set dies";
}

// --- idle interests in a full scan --------------------------------------------------
//
// A full scan folds the charges of idle interests (hintable, unhinted, cached
// not-ready, still bound to the file open under their fd) into runs. The
// first two tests pin the last condition: an interest scanned idle must not
// stay idle once its fd is closed or reused. The third pins the run's event
// horizon: a hint that lands mid-scan is seen by the rest of that scan.

TEST_F(DevPollTest, IdleInterestWhoseFdClosesReportsPollNval) {
  Open();
  auto [client, fd] = EstablishedPair();
  WriteOne(fd, kPollIn);
  PollNow();  // the first scan calls the driver (initial hint)
  const uint64_t avoided_before = kernel_.stats().devpoll_driver_calls_avoided;
  PollNow();
  ASSERT_EQ(kernel_.stats().devpoll_driver_calls_avoided, avoided_before + 1)
      << "scanned idle";
  const uint64_t stale_before = kernel_.stats().devpoll_scan_stale_fd;
  ASSERT_EQ(sys_.Close(fd), 0);
  auto results = PollNow();
  ASSERT_EQ(results.count(fd), 1u);
  EXPECT_EQ(results[fd], kPollNval);
  EXPECT_EQ(kernel_.stats().devpoll_scan_stale_fd, stale_before + 1);
}

TEST_F(DevPollTest, IdleInterestWhoseFdIsReusedRebindsToNewConnection) {
  Open();
  auto [client1, fd1] = EstablishedPair();
  WriteOne(fd1, kPollIn);
  PollNow();
  const uint64_t avoided_before = kernel_.stats().devpoll_driver_calls_avoided;
  PollNow();
  ASSERT_EQ(kernel_.stats().devpoll_driver_calls_avoided, avoided_before + 1)
      << "scanned idle";
  ASSERT_EQ(sys_.Close(fd1), 0);
  auto [client2, fd2] = EstablishedPair();
  ASSERT_EQ(fd2, fd1) << "test requires fd reuse";
  // The new connection's data hints nobody: the interest's backmap link
  // still points at the closed file.
  client2->Write(Chunk{"x", 0});
  RunFor(Millis(5));
  auto results = PollNow();
  ASSERT_EQ(results.count(fd2), 1u);
  EXPECT_EQ(results[fd2], kPollIn) << "rebound to the connection now under the fd";
}

// A hintable file whose readiness the test sets directly.
class HintingFile : public File {
 public:
  explicit HintingFile(SimKernel* kernel) : File(kernel) {}
  PollEvents PollMask() const override { return mask_; }
  bool SupportsPollHints() const override { return true; }
  void SetMask(PollEvents mask) { mask_ = mask; }

 private:
  PollEvents mask_ = 0;
};

TEST_F(DevPollTest, HintLandingMidScanIsReportedBySameScan) {
  Open();
  constexpr int kFiles = 40;
  std::vector<std::shared_ptr<HintingFile>> files;
  std::vector<PollFd> updates;
  for (int i = 0; i < kFiles; ++i) {
    files.push_back(std::make_shared<HintingFile>(&kernel_));
    updates.push_back({sys_.InstallFile(files.back()), kPollIn, 0});
    ASSERT_GE(updates.back().fd, 0);
  }
  ASSERT_GT(sys_.DevPollWrite(dpfd_, updates), 0);

  // Learn the scan order: with every file ready, results come out in it.
  for (auto& file : files) {
    file->SetMask(kPollIn);
  }
  std::vector<PollFd> order(kFiles);
  DvPoll all{order.data(), kFiles, 0};
  ASSERT_EQ(sys_.DevPollPoll(dpfd_, &all), kFiles);
  const int last_fd = order.back().fd;
  std::shared_ptr<HintingFile> last;
  for (size_t i = 0; i < updates.size(); ++i) {
    if (updates[i].fd == last_fd) {
      last = files[i];
    }
  }
  ASSERT_NE(last, nullptr);

  // Settle: every interest idle (the recheck scan clears the cached-ready
  // results, the next one skips every driver).
  for (auto& file : files) {
    file->SetMask(0);
  }
  PollNow();
  const uint64_t avoided_before = kernel_.stats().devpoll_driver_calls_avoided;
  ASSERT_TRUE(PollNow().empty());
  ASSERT_EQ(kernel_.stats().devpoll_driver_calls_avoided, avoided_before + kFiles);

  // The last-scanned file turns readable halfway through the second
  // interest's scan charge. A DP_POLL with one charge per interest sees the
  // hint before it reaches that file, and so must the folded scan.
  const CostModel& cost = kernel_.cost();
  const SimDuration unit = kernel_.Scaled(cost.devpoll_scan_per_interest);
  const SimTime scan_start =
      kernel_.now() + kernel_.pending_interrupt_debt() +
      kernel_.Scaled(cost.syscall_entry) + kernel_.Scaled(cost.devpoll_ioctl_extra) +
      kernel_.Scaled(cost.devpoll_lock_acquire);
  const uint64_t scanned_before = kernel_.stats().devpoll_interests_scanned;
  uint64_t scanned_at_hint = 0;
  sim_.ScheduleAt(scan_start + unit + unit / 2, [&] {
    scanned_at_hint = kernel_.stats().devpoll_interests_scanned - scanned_before;
    last->SetMask(kPollIn);
    last->NotifyStatus(kPollIn);
  });
  auto results = PollNow();
  EXPECT_EQ(scanned_at_hint, 2u) << "the hint landed during the second interest";
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[last_fd], kPollIn);
}

// --- scan counter taxonomy --------------------------------------------------------
//
// Every scanned interest falls into exactly one bucket: the driver was
// called, the driver was skipped (hint cache), or the fd was stale. The sum
// is pinned so a future fast path cannot silently fall out of accounting.
class DevPollTaxonomy : public DevPollTest,
                        public ::testing::WithParamInterface<bool> {};

TEST_P(DevPollTaxonomy, ScanCountersPartitionInterestsScanned) {
  DevPollOptions options;
  options.hinted_first_scan = GetParam();
  Open(options);
  // Mixed population: idle interests (driver skipped once hints settle), an
  // active one (driver called), and a closed fd left registered (stale).
  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(EstablishedPair());
    WriteOne(conns.back().second, kPollIn);
  }
  auto [stale_client, stale_fd] = EstablishedPair();
  WriteOne(stale_fd, kPollIn);
  ASSERT_EQ(sys_.Close(stale_fd), 0);  // improper usage: interest outlives the fd
  conns[0].first->Write(Chunk{"x", 0});
  RunFor(Millis(5));
  PollNow();
  PollNow();
  EXPECT_GT(sys_.Read(conns[0].second, 100).n, 0u);  // ready -> not-ready
  PollNow();
  const KernelStats& stats = kernel_.stats();
  EXPECT_GT(stats.devpoll_interests_scanned, 0u);
  EXPECT_GT(stats.devpoll_driver_calls, 0u);
  EXPECT_GT(stats.devpoll_scan_stale_fd, 0u);
  EXPECT_EQ(stats.devpoll_interests_scanned,
            stats.devpoll_driver_calls + stats.devpoll_driver_calls_avoided +
                stats.devpoll_scan_stale_fd)
      << "a scanned interest escaped the counter taxonomy";
}

INSTANTIATE_TEST_SUITE_P(BothScanModes, DevPollTaxonomy, ::testing::Bool());

// --- hint-cache coherence property ------------------------------------------------
//
// Whatever interleaving of traffic, reads, interest updates, and scans
// happens, a DP_POLL result must always equal the ground truth computed by
// polling every live interest directly.
struct PropertyParam {
  uint64_t seed;
  bool hinted_first;
};

class DevPollCoherence : public DevPollTest,
                         public ::testing::WithParamInterface<PropertyParam> {};

TEST_P(DevPollCoherence, ScanAlwaysMatchesGroundTruth) {
  DevPollOptions options;
  options.hinted_first_scan = GetParam().hinted_first;
  Open(options);
  Rng rng(GetParam().seed);

  std::vector<std::pair<std::shared_ptr<SimSocket>, int>> conns;
  for (int i = 0; i < 8; ++i) {
    conns.push_back(EstablishedPair());
    WriteOne(conns.back().second, kPollIn);
  }

  for (int step = 0; step < 300; ++step) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, 7));
    switch (rng.UniformInt(0, 4)) {
      case 0:  // client sends
        conns[i].first->Write(Chunk{"b", 0});
        break;
      case 1:  // server drains
        // sciolint: allow(E1) -- random drain; empty reads are expected
        (void)sys_.Read(conns[i].second, 16);
        break;
      case 2:  // toggle interest bits
        WriteOne(conns[i].second,
                 rng.Bernoulli(0.5) ? kPollIn : static_cast<PollEvents>(kPollIn | kPollOut));
        break;
      case 3:  // let time pass (packets land)
        RunFor(Micros(rng.UniformInt(0, 2000)));
        break;
      case 4:
        break;  // scan immediately
    }

    // Settle in-flight packets: the oracle below is a same-instant snapshot,
    // and a packet landing mid-scan would (legitimately, as on real
    // hardware) be missed by the scan but seen by the oracle.
    RunFor(Millis(2));
    auto scanned = PollNow(16);
    // Oracle: direct PollMask() of each live interest.
    std::map<int, PollEvents> truth;
    for (auto& [client, fd] : conns) {
      const Interest* interest = device_->FindInterest(fd);
      if (interest == nullptr) {
        continue;
      }
      auto file = sys_.socket(fd);
      const PollEvents revents =
          file->PollMask() & (interest->events | kPollAlwaysReported);
      if (revents != 0) {
        truth[fd] = revents;
      }
    }
    ASSERT_EQ(scanned, truth) << "hint cache diverged from ground truth at step "
                              << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInterleavings, DevPollCoherence,
    ::testing::Values(PropertyParam{11, false}, PropertyParam{12, false},
                      PropertyParam{13, false}, PropertyParam{21, true},
                      PropertyParam{22, true}, PropertyParam{23, true}));

}  // namespace
}  // namespace scio
