// Tests for the SMP scheduling plane: wake-one/exclusive wait-queue
// semantics, the deterministic multi-CPU scheduler, per-worker descriptor
// isolation, and the N-worker pool end to end.

#include <gtest/gtest.h>

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

TEST(SmpScheduler, ChargeRunHorizonIsZeroInsideAWorker) {
  // Every worker charge is a scheduling point, so no charge may be deferred
  // there — even with an empty event queue, where the main context's horizon
  // is unbounded.
  Simulator sim;
  SimKernel kernel(&sim);
  Process& a = kernel.CreateProcess("a");
  EXPECT_EQ(kernel.DeferrableCharges(Micros(1)), UINT64_MAX);

  uint64_t in_worker = 1;
  SmpScheduler sched(&kernel, /*cpus=*/1, /*seed=*/1);
  sched.AddWorker(&a, [&] {
    in_worker = kernel.DeferrableCharges(Micros(1));
    kernel.ChargeRepeated(Micros(1), ChargeCat::kDevpollScan, 10);
  });
  sched.Run();
  EXPECT_EQ(in_worker, 0u);
  EXPECT_EQ(sched.cpu_ledger(0)[ChargeCat::kDevpollScan], Micros(10))
      << "a run in worker context still lands on the worker's CPU ledger";
  EXPECT_EQ(kernel.attribution().Sum(), kernel.busy_time());
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
  // kernel agrees: only outside a worker may charges be deferred.
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
  EXPECT_GT(one.kernel_stats.wait_exclusive_adds, 0u);
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
