// Tests for the simulated kernel substrate: fd table, wait queues, files,
// process RT signal queues, and time accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/kernel/fd_table.h"
#include "src/kernel/file.h"
#include "src/kernel/process.h"
#include "src/kernel/sim_kernel.h"

namespace scio {
namespace {

// A minimal controllable file for kernel-level tests.
class FakeFile : public File {
 public:
  explicit FakeFile(SimKernel* kernel) : File(kernel) {}
  PollEvents PollMask() const override { return mask_; }
  bool SupportsPollHints() const override { return hints_; }
  void OnFdClose() override { ++close_calls_; }

  void SetMask(PollEvents mask) { mask_ = mask; }
  void set_hints(bool hints) { hints_ = hints; }
  int close_calls() const { return close_calls_; }

 private:
  PollEvents mask_ = 0;
  bool hints_ = true;
  int close_calls_ = 0;
};

struct KernelFixture : ::testing::Test {
  Simulator sim;
  SimKernel kernel{&sim};
};

// --- FdTable -------------------------------------------------------------------

TEST_F(KernelFixture, FdTableAllocatesLowestFree) {
  FdTable table(16);
  auto f0 = std::make_shared<FakeFile>(&kernel);
  auto f1 = std::make_shared<FakeFile>(&kernel);
  auto f2 = std::make_shared<FakeFile>(&kernel);
  EXPECT_EQ(table.Allocate(f0), 0);
  EXPECT_EQ(table.Allocate(f1), 1);
  EXPECT_EQ(table.Allocate(f2), 2);
  EXPECT_EQ(table.Close(1), 0);
  auto f3 = std::make_shared<FakeFile>(&kernel);
  EXPECT_EQ(table.Allocate(f3), 1) << "freed fd is reused lowest-first";
}

TEST_F(KernelFixture, FdTableRespectsLimit) {
  FdTable table(2);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), 0);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), 1);
  EXPECT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), -1) << "EMFILE";
  EXPECT_EQ(table.open_count(), 2u);
}

TEST_F(KernelFixture, FdTableCloseRunsHookOnceAndRejectsDoubleClose) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  const int fd = table.Allocate(file);
  EXPECT_EQ(table.Close(fd), 0);
  EXPECT_EQ(file->close_calls(), 1);
  EXPECT_EQ(table.Close(fd), -1) << "EBADF";
  EXPECT_EQ(table.Get(fd), nullptr);
}

TEST_F(KernelFixture, FdTableKeepsFileAliveThroughSharedPtr) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  std::weak_ptr<FakeFile> weak = file;
  const int fd = table.Allocate(file);
  file.reset();
  EXPECT_FALSE(weak.expired()) << "table holds a reference";
  table.Close(fd);
  EXPECT_TRUE(weak.expired());
}

TEST_F(KernelFixture, FdTableSetsFdNumber) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  const int fd = table.Allocate(file);
  EXPECT_EQ(file->fd_number(), fd);
}

TEST_F(KernelFixture, FdTableOpenFdsSnapshot) {
  FdTable table(8);
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Allocate(std::make_shared<FakeFile>(&kernel));
  table.Close(1);
  EXPECT_EQ(table.OpenFds(), (std::vector<int>{0, 2}));
}

TEST_F(KernelFixture, FdTableHandleStaysCurrentUntilClose) {
  FdTable table(8);
  auto file = std::make_shared<FakeFile>(&kernel);
  const int fd = table.Allocate(file);
  const FdHandle handle = table.Handle(fd);
  EXPECT_TRUE(table.Current(handle));
  EXPECT_EQ(table.Peek(fd), file.get());
  table.Close(fd);
  EXPECT_FALSE(table.Current(handle));
  EXPECT_EQ(table.Peek(fd), nullptr);
  ASSERT_EQ(table.Allocate(std::make_shared<FakeFile>(&kernel)), fd);
  EXPECT_FALSE(table.Current(handle)) << "a reused fd number is a new generation";
  EXPECT_EQ(table.Peek(-1), nullptr);
  EXPECT_EQ(table.Peek(1000), nullptr) << "out of range";
  EXPECT_FALSE(table.Current({1000, 0}));
}

// --- WaitQueue ---------------------------------------------------------------

TEST_F(KernelFixture, WaitQueueWakesAllRegistered) {
  WaitQueue queue;
  int wakes = 0;
  Waiter a([&] { ++wakes; });
  Waiter b([&] { ++wakes; });
  queue.Add(&a);
  queue.Add(&b);
  queue.WakeAll();
  EXPECT_EQ(wakes, 2);
}

TEST_F(KernelFixture, WaiterUnregistersOnDestruction) {
  WaitQueue queue;
  int wakes = 0;
  {
    Waiter w([&] { ++wakes; });
    queue.Add(&w);
    EXPECT_EQ(queue.size(), 1u);
  }
  EXPECT_EQ(queue.size(), 0u);
  queue.WakeAll();
  EXPECT_EQ(wakes, 0);
}

TEST_F(KernelFixture, WaitQueueRemoveIsIdempotent) {
  WaitQueue queue;
  Waiter w([] {});
  queue.Add(&w);
  queue.Remove(&w);
  queue.Remove(&w);
  EXPECT_EQ(queue.size(), 0u);
}

// --- File notification fan-out -----------------------------------------------

class RecordingListener : public StatusListener {
 public:
  void OnFileStatus(File& file, PollEvents mask) override {
    ++calls;
    last_fd = file.fd_number();
    last_mask = mask;
  }
  int calls = 0;
  int last_fd = -1;
  PollEvents last_mask = 0;
};

TEST_F(KernelFixture, NotifyStatusReachesListeners) {
  FakeFile file(&kernel);
  file.set_fd_number(7);
  RecordingListener listener;
  file.AddStatusListener(&listener);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.last_fd, 7);
  EXPECT_EQ(listener.last_mask, kPollIn);
  file.RemoveStatusListener(&listener);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(listener.calls, 1);
}

TEST_F(KernelFixture, NotifyStatusQueuesArmedSignal) {
  Process& proc = kernel.CreateProcess("p");
  FakeFile file(&kernel);
  file.set_fd_number(9);
  file.SetAsyncSignal(&proc, kSigRtMin + 2);
  file.NotifyStatus(kPollIn);
  auto si = proc.DequeueSignal();
  ASSERT_TRUE(si.has_value());
  EXPECT_EQ(si->signo, kSigRtMin + 2);
  EXPECT_EQ(si->fd, 9);
  EXPECT_EQ(si->band, kPollIn);
}

// A wake-one file hands each change to one listener and one subscriber,
// each taken in turn in registration order; poll sleepers still all wake.
TEST_F(KernelFixture, WakeOneFileHandsEachChangeToTheNextListenerAndSubscriber) {
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");
  FakeFile file(&kernel);
  file.set_wake_one(true);
  RecordingListener listeners[3];
  for (RecordingListener& l : listeners) {
    file.AddStatusListener(&l);
  }
  file.SetAsyncSignal(&a, kSigRtMin + 1);
  file.SetAsyncSignal(&b, kSigRtMin + 1);
  int poll_wakes = 0;
  Waiter sleeper_a([&] { ++poll_wakes; });
  Waiter sleeper_b([&] { ++poll_wakes; });
  file.poll_wait().Add(&sleeper_a);
  file.poll_wait().Add(&sleeper_b);

  for (int change = 0; change < 4; ++change) {
    file.NotifyStatus(kPollIn);
  }
  EXPECT_EQ(listeners[0].calls, 2);
  EXPECT_EQ(listeners[1].calls, 1);
  EXPECT_EQ(listeners[2].calls, 1);
  EXPECT_EQ(a.rt_queue_length(), 2u);
  EXPECT_EQ(b.rt_queue_length(), 2u);
  EXPECT_EQ(poll_wakes, 8) << "poll() sleepers herd";

  // Back to the default: every listener hears every change.
  file.set_wake_one(false);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(listeners[0].calls, 3);
  EXPECT_EQ(listeners[1].calls, 2);
  EXPECT_EQ(listeners[2].calls, 2);
  EXPECT_EQ(a.rt_queue_length(), 3u);
  EXPECT_EQ(b.rt_queue_length(), 3u);
}

// The listener a wake-one file picks may remove listeners, itself included.
class SelfRemovingListener : public StatusListener {
 public:
  void OnFileStatus(File& file, PollEvents mask) override {
    (void)mask;
    ++calls;
    file.RemoveStatusListener(this);
  }
  int calls = 0;
};

TEST_F(KernelFixture, WakeOneFileSurvivesAListenerThatRemovesItself) {
  FakeFile file(&kernel);
  file.set_wake_one(true);
  RecordingListener first;
  SelfRemovingListener second;
  file.AddStatusListener(&first);
  file.AddStatusListener(&second);
  file.NotifyStatus(kPollIn);  // first
  file.NotifyStatus(kPollIn);  // second, which leaves
  EXPECT_EQ(second.calls, 1);
  EXPECT_EQ(file.status_listener_count(), 1u);
  file.NotifyStatus(kPollIn);
  file.NotifyStatus(kPollIn);
  EXPECT_EQ(first.calls, 3);
  EXPECT_EQ(second.calls, 1);
}

TEST_F(KernelFixture, NotifyStatusWakesPollSleepers) {
  Process& proc = kernel.CreateProcess("p");
  FakeFile file(&kernel);
  Waiter w([&] { proc.Wake(); });
  file.poll_wait().Add(&w);
  EXPECT_FALSE(proc.woken());
  file.NotifyStatus(kPollOut);
  EXPECT_TRUE(proc.woken());
}

// --- Process RT signal queue ----------------------------------------------------

TEST_F(KernelFixture, SignalsDequeueLowestSignoFirstFifoWithin) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({40, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.QueueSignal({40, 3, kPollIn});
  proc.QueueSignal({35, 4, kPollIn});
  std::vector<int> fds;
  while (auto si = proc.DequeueSignal()) {
    fds.push_back(si->fd);
  }
  // All signo-35 first (in order), then all signo-40 (in order): the paper's
  // "activity on lower-numbered connections can cause longer delays for
  // higher-numbered connections".
  EXPECT_EQ(fds, (std::vector<int>{2, 4, 1, 3}));
}

TEST_F(KernelFixture, QueueOverflowRaisesSigIo) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(3);
  EXPECT_TRUE(proc.QueueSignal({35, 1, kPollIn}));
  EXPECT_TRUE(proc.QueueSignal({35, 2, kPollIn}));
  EXPECT_TRUE(proc.QueueSignal({35, 3, kPollIn}));
  EXPECT_FALSE(proc.QueueSignal({35, 4, kPollIn})) << "dropped on overflow";
  EXPECT_TRUE(proc.sigio_pending());
  EXPECT_EQ(proc.rt_queue_length(), 3u);
  // SIGIO delivers before any queued RT signal (lower signal number).
  auto si = proc.DequeueSignal();
  ASSERT_TRUE(si.has_value());
  EXPECT_EQ(si->signo, kSigIo);
  EXPECT_FALSE(proc.sigio_pending());
}

TEST_F(KernelFixture, FlushClearsQueueAndSigIo) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(2);
  proc.QueueSignal({35, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.QueueSignal({35, 3, kPollIn});  // overflow
  EXPECT_EQ(proc.FlushRtSignals(), 2u);
  EXPECT_FALSE(proc.sigio_pending());
  EXPECT_FALSE(proc.HasPendingSignals());
}

TEST_F(KernelFixture, QueuePeakTracksHighWater) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({35, 1, kPollIn});
  proc.QueueSignal({35, 2, kPollIn});
  proc.DequeueSignal();
  proc.QueueSignal({35, 3, kPollIn});
  EXPECT_EQ(proc.rt_queue_peak(), 2u);
}

TEST_F(KernelFixture, PeekDoesNotConsume) {
  Process& proc = kernel.CreateProcess("p");
  proc.QueueSignal({35, 1, kPollIn});
  EXPECT_TRUE(proc.PeekSignal().has_value());
  EXPECT_EQ(proc.rt_queue_length(), 1u);
}

// --- time accounting -------------------------------------------------------------

TEST_F(KernelFixture, ChargeAdvancesClockAndBusyTime) {
  kernel.Charge(Micros(100), ChargeCat::kOther);
  EXPECT_EQ(kernel.now(), Micros(100));
  EXPECT_EQ(kernel.busy_time(), Micros(100));
}

TEST_F(KernelFixture, ChargeRunsEventsInsideBusyWindow) {
  bool delivered = false;
  sim.ScheduleAt(Micros(50), [&] { delivered = true; });
  kernel.Charge(Micros(100), ChargeCat::kOther);
  EXPECT_TRUE(delivered) << "packets arrive while the server computes";
}

TEST_F(KernelFixture, DebtFoldsIntoNextCharge) {
  kernel.ChargeDebt(Micros(30), ChargeCat::kOther);
  EXPECT_EQ(kernel.pending_interrupt_debt(), Micros(30));
  kernel.Charge(Micros(10), ChargeCat::kOther);
  EXPECT_EQ(kernel.now(), Micros(40));
  EXPECT_EQ(kernel.pending_interrupt_debt(), 0);
}

// --- charge runs ------------------------------------------------------------------
//
// ChargeRepeated(d, cat, n) must leave a kernel exactly where n Charge(d, cat)
// calls leave its twin: same clock, busy time and per-category ledger, with
// the pending debt paid once.

struct TwinKernels {
  // The same pending interrupt debt, in two categories, on both kernels.
  void AddDebt(SimDuration d) {
    for (SimKernel* k : {run.get(), unit.get()}) {
      k->ChargeDebt(d, ChargeCat::kInterrupt);
      k->ChargeDebt(d / 3, ChargeCat::kHintMark);
    }
  }
  void ExpectSame() const {
    EXPECT_EQ(run->now(), unit->now());
    EXPECT_EQ(run->busy_time(), unit->busy_time());
    EXPECT_EQ(run->pending_interrupt_debt(), unit->pending_interrupt_debt());
    EXPECT_EQ(run->attribution().Signature(), unit->attribution().Signature());
    EXPECT_EQ(run->attribution().Sum(), run->busy_time());
  }
  Simulator run_sim;
  Simulator unit_sim;
  std::unique_ptr<SimKernel> run = std::make_unique<SimKernel>(&run_sim);
  std::unique_ptr<SimKernel> unit = std::make_unique<SimKernel>(&unit_sim);
};

TEST(ChargeRunTest, RunMatchesPerUnitChargesWithPendingDebt) {
  TwinKernels twins;
  twins.AddDebt(Micros(7) + 1);
  constexpr uint64_t kUnits = 1000;
  constexpr SimDuration kUnit = 41;
  ASSERT_GE(twins.run->DeferrableCharges(kUnit), kUnits) << "empty queue";
  twins.run->ChargeRepeated(kUnit, ChargeCat::kDevpollScan, kUnits);
  for (uint64_t i = 0; i < kUnits; ++i) {
    twins.unit->Charge(kUnit, ChargeCat::kDevpollScan);
  }
  twins.ExpectSame();
  EXPECT_EQ(twins.run->attribution()[ChargeCat::kDevpollScan],
            static_cast<SimDuration>(kUnits) * kUnit);
}

TEST(ChargeRunTest, RunAcrossEventsMatchesPerUnitCharges) {
  // Events inside the run's span add interrupt debt, which the following
  // units pay: a run past the horizon must split there.
  TwinKernels twins;
  twins.AddDebt(Micros(3));
  std::vector<SimTime> fired_run;
  std::vector<SimTime> fired_unit;
  for (SimTime t : {Micros(2), Micros(9), Micros(9) + 1, Micros(30)}) {
    twins.run_sim.ScheduleAt(t, [&twins, &fired_run] {
      fired_run.push_back(twins.run->now());
      twins.run->ChargeDebt(Micros(1), ChargeCat::kInterrupt);
    });
    twins.unit_sim.ScheduleAt(t, [&twins, &fired_unit] {
      fired_unit.push_back(twins.unit->now());
      twins.unit->ChargeDebt(Micros(1), ChargeCat::kInterrupt);
    });
  }
  constexpr uint64_t kUnits = 500;
  twins.run->ChargeRepeated(97, ChargeCat::kDriverPoll, kUnits);
  for (uint64_t i = 0; i < kUnits; ++i) {
    twins.unit->Charge(97, ChargeCat::kDriverPoll);
  }
  twins.ExpectSame();
  EXPECT_EQ(fired_run, fired_unit);
  EXPECT_EQ(fired_run.size(), 4u);
}

TEST(ChargeRunTest, EventAtHorizonFiresOnTheSameUnit) {
  TwinKernels twins;
  twins.AddDebt(Micros(5));
  constexpr SimDuration kUnit = 100;
  constexpr uint64_t kJ = 37;
  // Exactly now + debt + j·s: per-unit charges run it on unit j.
  const SimTime at = twins.run->now() + twins.run->pending_interrupt_debt() +
                     static_cast<SimDuration>(kJ) * kUnit;
  int fired_run = 0;
  int fired_unit = 0;
  twins.run_sim.ScheduleAt(at, [&fired_run] { ++fired_run; });
  twins.unit_sim.ScheduleAt(at, [&fired_unit] { ++fired_unit; });

  uint64_t unit_fired_on = 0;
  for (uint64_t j = 1; j <= 2 * kJ && unit_fired_on == 0; ++j) {
    twins.unit->Charge(kUnit, ChargeCat::kDevpollScan);
    if (fired_unit != 0) {
      unit_fired_on = j;
    }
  }
  ASSERT_EQ(unit_fired_on, kJ);

  const uint64_t horizon = twins.run->DeferrableCharges(kUnit);
  EXPECT_EQ(horizon, kJ - 1) << "unit j reaches the event, so it is not deferrable";
  twins.run->ChargeRepeated(kUnit, ChargeCat::kDevpollScan, horizon);
  EXPECT_EQ(fired_run, 0) << "a run within the horizon runs no event";
  twins.run->ChargeRepeated(kUnit, ChargeCat::kDevpollScan, 1);
  EXPECT_EQ(fired_run, 1);
  twins.ExpectSame();
}

TEST_F(KernelFixture, EmptyChargeRunDoesNothing) {
  kernel.ChargeDebt(Micros(4), ChargeCat::kInterrupt);
  kernel.ChargeRepeated(Micros(1), ChargeCat::kDevpollScan, 0);
  EXPECT_EQ(kernel.now(), 0);
  EXPECT_EQ(kernel.busy_time(), 0);
  EXPECT_EQ(kernel.pending_interrupt_debt(), Micros(4)) << "no unit, no debt paid";
}

TEST_F(KernelFixture, HorizonCountsDebtAndDueEvents) {
  EXPECT_EQ(kernel.DeferrableCharges(Micros(1)), UINT64_MAX) << "empty queue";
  sim.ScheduleAt(Micros(10), [] {});
  EXPECT_EQ(kernel.DeferrableCharges(Micros(1)), 9u);
  EXPECT_EQ(kernel.DeferrableCharges(Micros(3)), 3u);
  kernel.ChargeDebt(Micros(4), ChargeCat::kInterrupt);
  EXPECT_EQ(kernel.DeferrableCharges(Micros(1)), 5u) << "the debt is paid first";
  kernel.ChargeDebt(Micros(6), ChargeCat::kInterrupt);
  EXPECT_EQ(kernel.DeferrableCharges(Micros(1)), 0u) << "debt alone reaches the event";
}

TEST_F(KernelFixture, BlockProcessWokenByEvent) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(40), [&] { proc.Wake(); });
  EXPECT_TRUE(kernel.BlockProcess(proc, Seconds(1)));
  EXPECT_EQ(kernel.now(), Micros(40));
  EXPECT_FALSE(proc.woken()) << "wake flag consumed";
}

TEST_F(KernelFixture, BlockProcessTimesOut) {
  Process& proc = kernel.CreateProcess("p");
  EXPECT_FALSE(kernel.BlockProcess(proc, Micros(25)));
  EXPECT_EQ(kernel.now(), Micros(25));
}

TEST_F(KernelFixture, BlockProcessAbsorbsIdleDebt) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(10), [&] { kernel.ChargeDebt(Micros(500), ChargeCat::kOther); });
  EXPECT_FALSE(kernel.BlockProcess(proc, Micros(100))) << "nothing wakes it";
  EXPECT_EQ(kernel.pending_interrupt_debt(), 0) << "idle CPU absorbed the interrupt";
}

TEST_F(KernelFixture, StopRequestUnblocks) {
  Process& proc = kernel.CreateProcess("p");
  sim.ScheduleAt(Micros(5), [&] { kernel.RequestStop(); });
  EXPECT_FALSE(kernel.BlockProcess(proc, kSimTimeNever));
  EXPECT_TRUE(kernel.stopped());
}

TEST_F(KernelFixture, QueueRtSignalCountsOverflows) {
  Process& proc = kernel.CreateProcess("p");
  proc.set_rt_queue_max(1);
  kernel.QueueRtSignal(proc, {35, 1, kPollIn});
  kernel.QueueRtSignal(proc, {35, 2, kPollIn});
  EXPECT_EQ(kernel.stats().rt_signals_queued, 1u);
  EXPECT_EQ(kernel.stats().rt_signals_dropped, 1u);
  EXPECT_EQ(kernel.stats().rt_queue_overflows, 1u);
}

}  // namespace
}  // namespace scio
