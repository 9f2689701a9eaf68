// Tests for the SMP scheduling plane: wake-one/exclusive wait-queue
// semantics, the deterministic multi-CPU scheduler, per-worker descriptor
// isolation, and the N-worker pool end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/sim_kernel.h"
#include "src/kernel/wait_queue.h"
#include "src/load/httperf.h"
#include "src/load/benchmark_run.h"
#include "src/servers/worker_pool.h"
#include "src/smp/smp_scheduler.h"

namespace scio {
namespace {

// --- wake semantics -----------------------------------------------------------

struct WakeProbe {
  std::vector<std::unique_ptr<Waiter>> waiters;
  std::vector<int> woken;

  Waiter* Make(int id) {
    waiters.push_back(std::make_unique<Waiter>([this, id] { woken.push_back(id); }));
    return waiters.back().get();
  }
};

TEST(WakeSemantics, WakeOneWakesExactlyOneExclusiveInFifoOrder) {
  WaitQueue q;
  WakeProbe probe;
  q.AddExclusive(probe.Make(0));
  q.AddExclusive(probe.Make(1));
  q.AddExclusive(probe.Make(2));

  EXPECT_EQ(q.WakeOne(), 1u);
  ASSERT_EQ(probe.woken.size(), 1u);
  EXPECT_EQ(probe.woken[0], 0);  // FIFO: first registered wakes first

  // The woken waiter stays registered (poll paths detach themselves); a
  // second wake-up hits the same head of the queue.
  probe.woken.clear();
  EXPECT_EQ(q.WakeOne(), 1u);
  ASSERT_EQ(probe.woken.size(), 1u);
  EXPECT_EQ(probe.woken[0], 0);

  // Once the head detaches, the next exclusive waiter moves up.
  probe.waiters[0]->Detach();
  probe.woken.clear();
  EXPECT_EQ(q.WakeOne(), 1u);
  ASSERT_EQ(probe.woken.size(), 1u);
  EXPECT_EQ(probe.woken[0], 1);
}

TEST(WakeSemantics, WakeAllWakesEveryoneRegardlessOfExclusivity) {
  WaitQueue q;
  WakeProbe probe;
  q.Add(probe.Make(0));
  q.AddExclusive(probe.Make(1));
  q.Add(probe.Make(2));
  q.AddExclusive(probe.Make(3));

  EXPECT_EQ(q.WakeAll(), 4u);
  EXPECT_EQ(probe.woken.size(), 4u);
}

TEST(WakeSemantics, WakeOneMixedWakesAllNonExclusivePlusFirstExclusive) {
  WaitQueue q;
  WakeProbe probe;
  q.Add(probe.Make(0));
  q.AddExclusive(probe.Make(1));
  q.Add(probe.Make(2));
  q.AddExclusive(probe.Make(3));  // must be skipped

  EXPECT_EQ(q.WakeOne(), 3u);
  ASSERT_EQ(probe.woken.size(), 3u);
  EXPECT_EQ(probe.woken[0], 0);
  EXPECT_EQ(probe.woken[1], 1);
  EXPECT_EQ(probe.woken[2], 2);
}

TEST(WakeSemantics, ExclusiveCountTracksRegistrations) {
  WaitQueue q;
  WakeProbe probe;
  Waiter* a = probe.Make(0);
  Waiter* b = probe.Make(1);
  q.AddExclusive(a);
  q.Add(b);
  EXPECT_EQ(q.exclusive_count(), 1u);
  q.Remove(a);
  EXPECT_EQ(q.exclusive_count(), 0u);
  EXPECT_FALSE(a->exclusive());  // flag clears on removal
  EXPECT_EQ(q.size(), 1u);
}

// --- SmpScheduler -------------------------------------------------------------

TEST(SmpScheduler, WorkersOnDistinctCpusOverlapInVirtualTime) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");

  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/1);
  sched.AddWorker(&a, [&] { kernel.Charge(Millis(10), ChargeCat::kOther); });
  sched.AddWorker(&b, [&] { kernel.Charge(Millis(10), ChargeCat::kOther); });
  sched.Run();

  // Two 10 ms bodies on two CPUs overlap: wall clock ends at ~10 ms (plus
  // context-switch costs), not 20 ms, while busy time records both.
  EXPECT_LT(kernel.now(), Millis(15));
  EXPECT_GE(kernel.busy_time(), Millis(20));
}

TEST(SmpScheduler, WorkersOnOneCpuSerialize) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");

  SmpScheduler sched(&kernel, /*cpus=*/1, /*seed=*/1);
  sched.AddWorker(&a, [&] { kernel.Charge(Millis(10), ChargeCat::kOther); });
  sched.AddWorker(&b, [&] { kernel.Charge(Millis(10), ChargeCat::kOther); });
  sched.Run();

  EXPECT_GE(kernel.now(), Millis(20));
}

TEST(SmpScheduler, PerCpuLedgersSumToWorkerBusyTime) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");

  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/7);
  sched.AddWorker(&a, [&] { kernel.Charge(Millis(3), ChargeCat::kHttpParse); });
  sched.AddWorker(&b, [&] { kernel.Charge(Millis(5), ChargeCat::kHttpRespond); });
  sched.Run();

  const SimDuration ledger_sum = sched.cpu_ledger(0).Sum() + sched.cpu_ledger(1).Sum();
  EXPECT_EQ(ledger_sum, kernel.busy_time());
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

// --- per-CPU charge horizon -----------------------------------------------------
//
// In a worker, DeferrableCharges counts the units that keep the worker's
// clock strictly below its next scheduling point (SmpPlane::ChargeHorizon).
// The bodies below reach a known state whichever worker the seeded tie-break
// grants first: both workers pay a 5 µs first switch, then A charges 10 µs
// and B does its part, so A asks at 15 µs.

TEST(SmpChargeHorizon, AnotherReadyWorkerBoundsTheRunStrictly) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");
  SimTime asked_at = 0;
  uint64_t horizon_1us = 0;
  uint64_t horizon_10us = 0;
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/1);
  sched.AddWorker(&a, [&] {
    kernel.Charge(Micros(10), ChargeCat::kOther);
    asked_at = kernel.now();
    horizon_1us = kernel.DeferrableCharges(Micros(1));
    horizon_10us = kernel.DeferrableCharges(Micros(10));
  });
  // B, on the other CPU, is next runnable at 5 + 100 µs.
  sched.AddWorker(&b, [&] { kernel.Charge(Micros(100), ChargeCat::kOther); });
  sched.Run();
  ASSERT_EQ(asked_at, Micros(15));
  EXPECT_EQ(horizon_1us, 89u) << "15 + 89 µs < 105 µs";
  EXPECT_EQ(horizon_10us, 8u) << "a 9th unit would end at 105 µs, tying with B";
}

TEST(SmpChargeHorizon, BlockedDeadlineBoundsTheRun) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");
  uint64_t horizon = 0;
  bool b_woken = true;
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/1);
  sched.AddWorker(&a, [&] {
    kernel.Charge(Micros(10), ChargeCat::kOther);
    horizon = kernel.DeferrableCharges(Micros(1));
  });
  sched.AddWorker(&b, [&] { b_woken = kernel.BlockProcess(b, Micros(200)); });
  sched.Run();
  EXPECT_EQ(horizon, 184u) << "15 + 184 µs < the 200 µs deadline";
  EXPECT_FALSE(b_woken);
  EXPECT_EQ(kernel.now(), Micros(200));
}

TEST(SmpChargeHorizon, WokenBlockedWorkerLeavesNoRoom) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");
  uint64_t before_wake = 0;
  uint64_t after_wake = 1;
  uint64_t after_stop = 1;
  bool b_woken = false;
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/1);
  sched.AddWorker(&a, [&] {
    kernel.Charge(Micros(10), ChargeCat::kOther);
    before_wake = kernel.DeferrableCharges(Micros(1));
    b.Wake();
    after_wake = kernel.DeferrableCharges(Micros(1));
    kernel.RequestStop();
    after_stop = kernel.DeferrableCharges(Micros(1));
  });
  sched.AddWorker(&b, [&] { b_woken = kernel.BlockProcess(b, kSimTimeNever); });
  sched.Run();
  EXPECT_EQ(before_wake, UINT64_MAX) << "no deadline, no peer, no event";
  EXPECT_EQ(after_wake, 0u) << "B is promoted at the next reschedule";
  EXPECT_EQ(after_stop, 0u);
  EXPECT_TRUE(b_woken);
}

TEST(SmpChargeHorizon, LoneWorkerWithNoEventsIsUnbounded) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  uint64_t in_worker = 0;
  SmpScheduler sched(&kernel, /*cpus=*/1, /*seed=*/1);
  sched.AddWorker(&a, [&] {
    in_worker = kernel.DeferrableCharges(Micros(1));
    kernel.ChargeRepeated(Micros(1), ChargeCat::kDevpollScan, 10);
  });
  sched.Run();
  EXPECT_EQ(in_worker, UINT64_MAX);
  EXPECT_EQ(sched.cpu_ledger(0)[ChargeCat::kDevpollScan], Micros(10))
      << "a run in worker context lands on the worker's CPU ledger";
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

// ChargeRepeated(d, cat, n) in a worker must schedule exactly like n
// Charge(d, cat) calls: three workers on two CPUs (two share CPU 0), one of
// them blocking with deadlines, woken by events (which also add interrupt
// debt) and by another worker's body. Everything the schedule decides is
// compared.
struct PoolTrace {
  std::vector<std::string> log;  // bodies and events, in execution order
  std::vector<std::string> cpu_ledgers;
  std::string ledger;
  uint64_t context_switches = 0;
  SimTime end = 0;
  SimDuration busy = 0;
  uint64_t deferrable_asks = 0;  // how often a worker could defer a unit
};

PoolTrace RunChargePool(bool repeated) {
  Simulator sim;
  SimKernel kernel(&sim);
  std::vector<Process*> procs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(&kernel.CreateProcess("w" + std::to_string(i)));
  }
  PoolTrace trace;
  for (int i = 0; i < 120; ++i) {
    sim.ScheduleAt(Micros(2) + i * 9'731, [&, i] {
      trace.log.push_back("event " + std::to_string(i) + " @" + std::to_string(sim.now()));
      kernel.ChargeDebt(Nanos(300 + 7 * i), ChargeCat::kInterrupt);
      if (i % 5 == 0) {
        procs[2]->Wake();
      }
    });
  }
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/5);
  for (int w = 0; w < 3; ++w) {
    sched.AddWorker(procs[static_cast<size_t>(w)], [&, w] {
      const SimDuration unit = 97 + 13 * w;
      for (int round = 0; round < 25; ++round) {
        if (w == 0 && round % 4 == 1) {
          procs[2]->Wake();  // a body wakes a sleeper, too
        }
        const uint64_t n = 3 + static_cast<uint64_t>((round * 7 + w * 11) % 41);
        if (repeated) {
          trace.deferrable_asks += kernel.DeferrableCharges(unit) > 0 ? 1 : 0;
          kernel.ChargeRepeated(unit, ChargeCat::kDevpollScan, n);
        } else {
          for (uint64_t k = 0; k < n; ++k) {
            kernel.Charge(unit, ChargeCat::kDevpollScan);
          }
        }
        trace.log.push_back("w" + std::to_string(w) + " round " + std::to_string(round) +
                            " @" + std::to_string(kernel.now()));
        if (w == 2) {
          const bool woken =
              kernel.BlockProcess(*procs[2], kernel.now() + Micros(round % 2 == 0 ? 3 : 15));
          trace.log.push_back(woken ? "w2 woken" : "w2 timed out");
        }
      }
    });
  }
  sched.Run();
  for (int cpu = 0; cpu < sched.cpus(); ++cpu) {
    trace.cpu_ledgers.push_back(sched.cpu_ledger(cpu).Signature());
  }
  trace.ledger = kernel.attribution().Signature();
  trace.context_switches = kernel.stats().smp_context_switches;
  trace.end = kernel.now();
  trace.busy = kernel.busy_time();
  sim.DiscardPending();
  return trace;
}

TEST(SmpChargeHorizon, ChargeRunsScheduleLikePerUnitCharges) {
  const PoolTrace runs = RunChargePool(/*repeated=*/true);
  const PoolTrace units = RunChargePool(/*repeated=*/false);
  EXPECT_EQ(runs.log, units.log);
  EXPECT_EQ(runs.cpu_ledgers, units.cpu_ledgers);
  EXPECT_EQ(runs.ledger, units.ledger);
  EXPECT_EQ(runs.context_switches, units.context_switches);
  EXPECT_EQ(runs.end, units.end);
  EXPECT_EQ(runs.busy, units.busy);
  EXPECT_GT(runs.context_switches, 10u) << "the workers really interleaved";
  EXPECT_GT(runs.deferrable_asks, 10u) << "the runs really deferred units";
}

TEST(SmpScheduler, WorkerStackLocalsSurviveManyHandoffs) {
  // Every worker charge is a scheduling point: each charge below may switch
  // to the other worker and back, and the sum must come back intact.
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");

  constexpr int kCharges = 1000;
  std::vector<int> order;
  uint64_t sums[2] = {0, 0};
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/3);
  for (int w = 0; w < 2; ++w) {
    sched.AddWorker(w == 0 ? &a : &b, [&, w] {
      volatile uint64_t sum = 0;  // in memory on this worker's stack
      for (int i = 1; i <= kCharges; ++i) {
        sum = sum + static_cast<uint64_t>(i) * static_cast<uint64_t>(w + 1);
        order.push_back(w);
        kernel.Charge(Micros(1), ChargeCat::kOther);
      }
      sums[w] = sum;
    });
  }
  sched.Run();

  constexpr uint64_t kTriangle = uint64_t{kCharges} * (kCharges + 1) / 2;
  EXPECT_EQ(sums[0], kTriangle);
  EXPECT_EQ(sums[1], 2 * kTriangle);
  ASSERT_EQ(order.size(), 2u * kCharges);
  int switches = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    switches += order[i] != order[i - 1] ? 1 : 0;
  }
  EXPECT_GT(switches, kCharges) << "the two workers ran interleaved, not in turn";
}

TEST(SmpScheduler, WorkerBodyUsesAMegabyteOfStackAcrossCharges) {
  // A worker's stack is as deep as a thread's: a 1 MB frame fits and keeps
  // its contents across handoffs to the other worker.
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  Process& b = kernel.CreateProcess("b");

  constexpr size_t kBytes = size_t{1} << 20;
  constexpr size_t kStride = 4096;
  bool intact[2] = {false, false};
  SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/1);
  for (int w = 0; w < 2; ++w) {
    sched.AddWorker(w == 0 ? &a : &b, [&, w] {
      unsigned char block[kBytes];
      volatile unsigned char* bytes = block;
      const auto mark = [w](size_t off) {
        return static_cast<unsigned char>(off / kStride + static_cast<size_t>(w));
      };
      for (size_t off = 0; off < kBytes; off += kStride) {
        bytes[off] = mark(off);
        kernel.Charge(Micros(1), ChargeCat::kOther);
      }
      bool ok = true;
      for (size_t off = 0; off < kBytes; off += kStride) {
        ok = ok && bytes[off] == mark(off);
      }
      intact[w] = ok;
    });
  }
  sched.Run();
  EXPECT_TRUE(intact[0]);
  EXPECT_TRUE(intact[1]);
}

TEST(SmpScheduler, RunsOwnContextIsNotAWorker) {
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  SmpScheduler sched(&kernel, /*cpus=*/1, /*seed=*/1);

  // The first context switch occupies the CPU for 5 µs, so Run() steps this
  // event on its own context before granting the worker anything. The
  // kernel agrees: outside a worker only the event queue bounds a charge run.
  std::vector<std::string> log;
  uint64_t event_horizon = 0;
  sim.ScheduleAt(0, [&] {
    log.push_back(sched.InWorkerContext() ? "event:worker" : "event:main");
    event_horizon = kernel.DeferrableCharges(Micros(1));
  });
  sched.AddWorker(&a, [&] {
    log.push_back(sched.InWorkerContext() ? "body:worker" : "body:main");
  });
  sched.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"event:main", "body:worker"}));
  EXPECT_GT(event_horizon, 0u);

  EXPECT_FALSE(sched.InWorkerContext());
  // A charge after Run() takes the single-CPU path: it moves the global clock.
  const SimTime before = kernel.now();
  kernel.Charge(Millis(1), ChargeCat::kOther);
  EXPECT_EQ(kernel.now(), before + Millis(1));
}

TEST(SmpScheduler, BackToBackSchedulersOnOneKernelGiveIdenticalLedgers) {
  Simulator sim;
  SimKernel kernel(&sim);
  std::vector<Process*> procs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(&kernel.CreateProcess("w" + std::to_string(i)));
  }
  const auto run_once = [&] {
    SmpScheduler sched(&kernel, /*cpus=*/2, /*seed=*/9);
    for (int i = 0; i < 3; ++i) {
      sched.AddWorker(procs[static_cast<size_t>(i)], [&kernel, i] {
        for (int k = 0; k < 50; ++k) {
          kernel.Charge(Micros(1 + i), ChargeCat::kHttpParse);
          kernel.Charge(Micros(2), ChargeCat::kHttpRespond);
        }
      });
    }
    sched.Run();
    return std::vector<std::string>{sched.cpu_ledger(0).Signature(),
                                    sched.cpu_ledger(1).Signature()};
  };
  const std::vector<std::string> first = run_once();
  const std::vector<std::string> second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first[0], first[1]) << "both CPUs ran work, pinned differently";
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
}

// --- end-to-end pool ----------------------------------------------------------

BenchmarkRunConfig QuickConfig(ServerKind server, ListenerMode mode, int workers,
                               int cpus) {
  BenchmarkRunConfig config;
  config.server = server;
  config.mode = mode;
  config.workers = workers;
  config.cpus = cpus;
  config.seed = 42;
  config.active.request_rate = 300;
  config.active.duration = Seconds(1);
  config.active.seed = 11;
  config.inactive.connections = 50;
  config.warmup = Millis(500);
  config.drain = Seconds(1);
  return config;
}

TEST(WorkerPoolRun, SingleWorkerServesLoad) {
  const BenchmarkResult r =
      RunBenchmark(QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharedWakeAll, 1, 1));
  ASSERT_TRUE(r.setup_ok);
  EXPECT_GT(r.successes, 100u);
  EXPECT_GT(r.total_accepted, 0u);
  // One worker: a SYN can wake at most that worker.
  EXPECT_LE(r.wakeups_per_accept, 1.5);
}

TEST(WorkerPoolRun, WakeAllHerdExceedsWakeOne) {
  const BenchmarkResult herd =
      RunBenchmark(QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharedWakeAll, 4, 4));
  const BenchmarkResult one =
      RunBenchmark(QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharedWakeOne, 4, 4));
  ASSERT_TRUE(herd.setup_ok);
  ASSERT_TRUE(one.setup_ok);
  EXPECT_GT(herd.wakeups_per_accept, one.wakeups_per_accept);
}

TEST(WorkerPoolRun, ShardedSpreadsAcceptsAcrossWorkers) {
  const BenchmarkResult r = RunBenchmark(
      QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharded, 4, 4));
  ASSERT_TRUE(r.setup_ok);
  int workers_with_accepts = 0;
  for (const ServerStats& s : r.worker_stats) {
    if (s.connections_accepted > 0) {
      ++workers_with_accepts;
    }
  }
  EXPECT_GE(workers_with_accepts, 3);
}

TEST(WorkerPoolRun, PhhttpdRoundRobinDeliverySpreadsSignals) {
  const BenchmarkResult r = RunBenchmark(
      QuickConfig(ServerKind::kPhhttpd, ListenerMode::kSharedWakeOne, 4, 4));
  ASSERT_TRUE(r.setup_ok);
  EXPECT_GT(r.successes, 100u);
  // Round-robin delivery: close to one listener wake per accepted conn.
  EXPECT_LT(r.wakeups_per_accept, 2.0);
}

// --- listener modes, per server kind --------------------------------------------

constexpr ServerKind kEveryKind[] = {
    ServerKind::kThttpdPoll,  ServerKind::kThttpdDevPoll,   ServerKind::kPhhttpd,
    ServerKind::kHybrid,      ServerKind::kThttpdEpoll,     ServerKind::kThttpdEpollEt,
    ServerKind::kPhhttpdKqueue};

class ListenerModeTest : public ::testing::TestWithParam<ServerKind> {};

// A one-worker pool shares its listener with no one, so the three listener
// modes must give the same run, counter for counter.
TEST_P(ListenerModeTest, OneWorkerRunIsTheSameInEveryMode) {
  const BenchmarkResult wake_all =
      RunBenchmark(QuickConfig(GetParam(), ListenerMode::kSharedWakeAll, 1, 1));
  ASSERT_TRUE(wake_all.setup_ok);
  EXPECT_GT(wake_all.successes, 100u);
  for (ListenerMode mode : {ListenerMode::kSharedWakeOne, ListenerMode::kSharded}) {
    const BenchmarkResult r = RunBenchmark(QuickConfig(GetParam(), mode, 1, 1));
    EXPECT_EQ(r.signature, wake_all.signature) << ListenerModeName(mode);
  }
}

// A wake-one listener wakes one worker per accept whatever core the
// workers run, about as often as a sharded pool does. poll() sleepers are
// the exception: they wait on the listener's own queue, and all of them
// wake, as in Linux.
TEST_P(ListenerModeTest, WakeOneWakesAboutOneWorkerPerAccept) {
  const BenchmarkResult wake_all =
      RunBenchmark(QuickConfig(GetParam(), ListenerMode::kSharedWakeAll, 4, 4));
  const BenchmarkResult wake_one =
      RunBenchmark(QuickConfig(GetParam(), ListenerMode::kSharedWakeOne, 4, 4));
  const BenchmarkResult sharded =
      RunBenchmark(QuickConfig(GetParam(), ListenerMode::kSharded, 4, 4));
  ASSERT_TRUE(wake_all.setup_ok);
  ASSERT_TRUE(wake_one.setup_ok);
  ASSERT_TRUE(sharded.setup_ok);
  EXPECT_GT(wake_one.total_accepted, 0u);
  if (GetParam() == ServerKind::kThttpdPoll) {
    EXPECT_EQ(wake_one.signature, wake_all.signature)
        << "wakeups/accept " << wake_one.wakeups_per_accept << " vs "
        << wake_all.wakeups_per_accept;
    return;
  }
  EXPECT_LE(wake_one.wakeups_per_accept, sharded.wakeups_per_accept + 0.05)
      << "wake-all " << wake_all.wakeups_per_accept;
  EXPECT_LT(wake_one.wakeups_per_accept, wake_all.wakeups_per_accept)
      << "sharded " << sharded.wakeups_per_accept;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ListenerModeTest, ::testing::ValuesIn(kEveryKind),
                         [](const ::testing::TestParamInfo<ServerKind>& info) {
                           std::string name = ServerKindName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Every pool builds the kind it is asked for: the event core it names is
// the one the kernel sees working.
TEST(WorkerPoolRun, PoolBuildsTheServerKindItNames) {
  const BenchmarkResult epoll =
      RunBenchmark(QuickConfig(ServerKind::kThttpdEpoll, ListenerMode::kSharded, 2, 2));
  ASSERT_TRUE(epoll.setup_ok);
  EXPECT_GT(epoll.kernel_stats.epoll_waits, 0u);
  EXPECT_EQ(epoll.kernel_stats.devpoll_polls, 0u);

  const BenchmarkResult kqueue =
      RunBenchmark(QuickConfig(ServerKind::kPhhttpdKqueue, ListenerMode::kSharded, 2, 2));
  ASSERT_TRUE(kqueue.setup_ok);
  EXPECT_GT(kqueue.kernel_stats.kq_kevents, 0u);
  EXPECT_EQ(kqueue.kernel_stats.devpoll_polls, 0u);
}

// --- determinism gate ---------------------------------------------------------

TEST(SmpDeterminism, EightCpuDoubleRunIsBitIdentical) {
  const BenchmarkRunConfig config =
      QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharedWakeOne, 8, 8);
  const BenchmarkResult first = RunBenchmark(config);
  const BenchmarkResult second = RunBenchmark(config);
  ASSERT_TRUE(first.setup_ok);
  EXPECT_EQ(first.signature, second.signature);
}

TEST(SmpDeterminism, ShardedDoubleRunIsBitIdentical) {
  const BenchmarkRunConfig config =
      QuickConfig(ServerKind::kPhhttpd, ListenerMode::kSharded, 4, 2);
  const BenchmarkResult first = RunBenchmark(config);
  const BenchmarkResult second = RunBenchmark(config);
  ASSERT_TRUE(first.setup_ok);
  EXPECT_EQ(first.signature, second.signature);
}

TEST(SmpDeterminism, ShardedRoutingStableAcrossLinkFlap) {
  // A mid-run link flap holds SYNs in flight and releases them in a burst
  // when the window closes. Shard routing hashes only the source port, so the
  // burst must land on the same shards it would have without the outage —
  // bit-identical across runs, and every shard still takes accepts.
  BenchmarkRunConfig config =
      QuickConfig(ServerKind::kThttpdDevPoll, ListenerMode::kSharded, 4, 4);
  config.faults.Add({FaultKind::kLinkFlap, Millis(800), Millis(950), 1.0, 0,
                     LinkDir::kToServer});
  const BenchmarkResult first = RunBenchmark(config);
  const BenchmarkResult second = RunBenchmark(config);
  ASSERT_TRUE(first.setup_ok);
  EXPECT_GT(first.fault_stats.packets_flap_held, 0u) << "the flap actually bit";
  EXPECT_EQ(first.signature, second.signature);
  int workers_with_accepts = 0;
  for (const ServerStats& s : first.worker_stats) {
    if (s.connections_accepted > 0) {
      ++workers_with_accepts;
    }
  }
  EXPECT_GE(workers_with_accepts, 3) << "the flap did not wedge any shard";
}

// --- per-worker descriptor isolation (satellite: worker fd budgets) -----------

// A file that occupies an fd slot and nothing more.
class SlotFile : public File {
 public:
  explicit SlotFile(SimKernel* kernel) : File(kernel) {}
  PollEvents PollMask() const override { return 0; }
};

TEST(WorkerIsolation, SaturatedWorkerDoesNotThrottleSiblings) {
  Simulator sim;
  SimKernel kernel(&sim);
  NetStack net(&kernel, NetConfig{});
  StaticContent content;
  content.AddDocument("/index.html", 1024);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.cpus = 2;
  pool_config.mode = ListenerMode::kSharded;
  pool_config.worker_max_fds = 64;
  pool_config.seed = 5;
  WorkerPool pool(&kernel, &net, pool_config,
                  [&content](Sys* sys) -> std::unique_ptr<HttpServerBase> {
                    return std::make_unique<ThttpdDevPoll>(sys, &content);
                  });
  ASSERT_EQ(pool.Setup(), 0);

  // Saturate worker 0's table: its budget is its own, not the pool's.
  while (pool.sys(0).InstallFile(std::make_shared<SlotFile>(&kernel)) >= 0) {
  }
  ASSERT_GE(pool.proc(0).fds().open_count(), 63u);
  EXPECT_EQ(pool.proc(1).fds().open_count(), 2u);  // listener + /dev/poll

  HttperfGenerator generator(&net, pool.head_listener(), [] {
    ActiveWorkload w;
    w.request_rate = 400;
    w.duration = Seconds(1);
    w.seed = 13;
    return w;
  }());
  generator.Start(Millis(100));
  pool.Run(Seconds(2));
  kernel.RequestStop();

  // Worker 0 is pinned at its high watermark: every accept is throttled.
  // Worker 1's own table is nearly empty, so it must keep accepting.
  EXPECT_GT(pool.server(0).stats().accepts_throttled, 0u);
  EXPECT_EQ(pool.server(1).stats().accepts_throttled, 0u);
  EXPECT_GT(pool.server(1).stats().connections_accepted, 50u);
  sim.DiscardPending();
}

}  // namespace
}  // namespace scio
