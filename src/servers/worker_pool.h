// WorkerPool: N server workers over the SMP scheduling plane.
//
// Recreates the three ways a multi-process Linux server of the era could
// share inbound connections, so bench_smp_scaling can compare them head on:
//
//  - kSharedWakeAll: every worker inherits one listener (fork-style); every
//    SYN reaches every worker's registration on it, hint, ready-list link
//    or signal, and so wakes the whole pool (the thundering herd, pre-2.3
//    semantics).
//  - kSharedWakeOne: the same listener, set wake-one (File::set_wake_one):
//    each SYN goes to one registration and one signal subscriber, taken in
//    turn, so it wakes one worker whatever event core the workers run.
//    poll() sleepers sit on the listener's own wait queue and still all
//    wake, as in Linux.
//  - kSharded: each worker binds its own SO_REUSEPORT-style listener and a
//    seeded flow hash spreads SYNs across the shards; no shared queue at
//    all.
//
// Each worker is its own Process (own descriptor table — a saturated worker
// cannot throttle a sibling), its own Sys, and its own server instance built
// by the caller's factory. Run() pins workers round-robin onto the
// SmpScheduler's virtual CPUs and drives them to completion.
//
// RunBenchmark builds every testbed through a pool, the paper's single-CPU
// one included: that is a one-worker pool whose server's Run() is called
// directly, with no scheduler.

#ifndef SRC_SERVERS_WORKER_POOL_H_
#define SRC_SERVERS_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/reuseport.h"
#include "src/servers/server_base.h"
#include "src/smp/smp_scheduler.h"

namespace scio {

enum class ListenerMode {
  kSharedWakeAll,   // one listener, every registration per change: herd
  kSharedWakeOne,   // one wake-one listener: one registration per change
  kSharded,         // per-worker listeners behind a ReusePortGroup
};

std::string ListenerModeName(ListenerMode mode);

struct WorkerPoolConfig {
  int workers = 1;
  int cpus = 1;
  ListenerMode mode = ListenerMode::kSharedWakeAll;
  // Per-worker descriptor budget. Tables are per-process, so the budget
  // isolates workers from each other's saturation.
  int worker_max_fds = 8192;
  // Seeds both the scheduler's tie-breaking and the sharded flow hash.
  uint64_t seed = 0;
  size_t rt_queue_max = kDefaultRtQueueMax;
};

// Builds one server per worker. The server needs no mode-specific options:
// the pool shares or shards the listener and applies the mode to it.
using ServerFactory = std::function<std::unique_ptr<HttpServerBase>(Sys* sys)>;

class WorkerPool {
 public:
  WorkerPool(SimKernel* kernel, NetStack* net, WorkerPoolConfig config,
             ServerFactory factory);

  // Creates processes and servers, binds/shares listeners per the mode, and
  // runs every worker's event-plane setup. Returns 0, or a negative
  // errno-style code from the first failing step.
  [[nodiscard]] int Setup();

  // Runs all workers to `until` on a fresh SmpScheduler. Call once.
  void Run(SimTime until);

  // Valid after a successful Setup(). The listener load generators should
  // target: for kSharded this is shard 0, and the ReusePortGroup reroutes
  // each SYN to its hashed member.
  const std::shared_ptr<SimListener>& head_listener() const { return listeners_.front(); }
  // The distinct listeners: the shared one, or the shards in worker order.
  const std::vector<std::shared_ptr<SimListener>>& listeners() const { return listeners_; }

  int workers() const { return static_cast<int>(workers_.size()); }
  HttpServerBase& server(int i) { return *workers_[i].server; }
  const HttpServerBase& server(int i) const { return *workers_[i].server; }
  Process& proc(int i) { return *workers_[i].proc; }
  Sys& sys(int i) { return *workers_[i].sys; }
  // Valid after Run().
  const SmpScheduler* scheduler() const { return sched_.get(); }

 private:
  struct Worker {
    Process* proc = nullptr;
    std::unique_ptr<Sys> sys;
    std::unique_ptr<HttpServerBase> server;
  };

  SimKernel* kernel_;
  NetStack* net_;
  WorkerPoolConfig config_;
  ServerFactory factory_;
  std::vector<Worker> workers_;
  std::vector<std::shared_ptr<SimListener>> listeners_;
  std::unique_ptr<ReusePortGroup> reuseport_;
  std::unique_ptr<SmpScheduler> sched_;
};

}  // namespace scio

#endif  // SRC_SERVERS_WORKER_POOL_H_
