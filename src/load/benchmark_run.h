// BenchmarkRun: one point on a paper figure or on the SMP scaling figure.
//
// Assembles the whole testbed — simulator, kernel, network, server
// processes, inactive pool, httperf generator — runs it, and reduces the
// records to the quantities the paper plots: average/min/max/stddev reply
// rate over periodic samples (FIGS 4-9, 11-13), error percentage (FIG 10),
// and median connection time (FIG 14).
//
// There is one testbed with two shapes. workers = 0 (the default) is the
// paper's: one server process driven inline on one CPU. workers = N runs N
// server processes as a WorkerPool on the SMP scheduling plane, sharing
// inbound connections per `mode`, and adds the SMP observables: herd
// wakeups per accepted connection, virtual context switches and per-CPU
// ledgers. Both shapes build, set up, defend, reduce and tear down their
// servers the same way; only the run step differs.

#ifndef SRC_LOAD_BENCHMARK_RUN_H_
#define SRC_LOAD_BENCHMARK_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_plane.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/kernel_stats.h"
#include "src/load/attack_campaign.h"
#include "src/load/workload.h"
#include "src/net/filter_chain.h"
#include "src/net/net_stack.h"
#include "src/servers/defense.h"
#include "src/servers/hybrid_server.h"
#include "src/servers/phhttpd.h"
#include "src/servers/phhttpd_kqueue.h"
#include "src/servers/thttpd_devpoll.h"
#include "src/servers/thttpd_epoll.h"
#include "src/servers/thttpd_poll.h"
#include "src/servers/worker_pool.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/time_attribution.h"
#include "src/transport/transport_plane.h"

namespace scio {

enum class ServerKind {
  kThttpdPoll,
  kThttpdDevPoll,
  kPhhttpd,
  kHybrid,
  kThttpdEpoll,    // epoll-style successor core, level-triggered
  kThttpdEpollEt,  // same server, edge-triggered interests
  kPhhttpdKqueue,  // kqueue-style filter core, EV_CLEAR knotes
};

std::string ServerKindName(ServerKind kind);

struct BenchmarkRunConfig {
  ServerKind server = ServerKind::kThttpdPoll;
  // Pool shape. workers = 0 runs the paper's single server inline; N >= 1
  // runs N workers on `cpus` virtual CPUs, sharing the listener per `mode`.
  // `seed` drives the scheduler's tie-breaking and the sharded flow hash.
  int workers = 0;
  int cpus = 1;
  ListenerMode mode = ListenerMode::kSharedWakeAll;
  uint64_t seed = 0;
  ActiveWorkload active;
  InactiveWorkload inactive;
  // Torture-run knobs: an empty schedule and zero abusive populations (the
  // defaults) leave the happy-path benches bit-identical to before.
  FaultSchedule faults;
  AbusiveWorkload abusive;
  // Scripted ingress attacks; an empty schedule (the default) launches none.
  AttackSchedule attack;
  // Ingress filtering and defense. Installing static rules or enabling the
  // adaptive defense implies a chain; filter_enabled alone attaches an empty
  // chain (pure hook cost). All off (the defaults) leaves the ingress path
  // untouched and every existing bench bit-identical.
  bool filter_enabled = false;
  std::vector<FilterRule> static_rules;
  bool adaptive_defense = false;
  DefenseConfig defense;
  int filter_band_width = 1 << 16;
  // Descriptor budget of each server process: tables are per process, so a
  // saturated worker cannot throttle a sibling.
  int server_max_fds = 8192;

  // Opt-in transport plane (src/transport): per-connection TCP with real
  // segmentation, SACK loss recovery, and a selectable congestion-control
  // stack. Off (the default) keeps every socket on the legacy reliable-pipe
  // model and every existing bench bit-identical.
  bool transport_enabled = false;
  TransportConfig transport;

  // Size of the served document. The paper uses a 6 KB index.html (§5);
  // larger documents keep sockets active longer and exercise partial writes.
  size_t document_bytes = 6 * 1024;

  SimDuration warmup = Seconds(2);   // inactive pool established, server settled
  SimDuration drain = Seconds(4);    // let in-flight connections resolve
  SimDuration sample_width = Seconds(1);  // reply-rate sample buckets

  CostModel cost;
  NetConfig net;
  ServerConfig server_config;
  ThttpdDevPollConfig devpoll_config;
  PollSyscallOptions poll_options;
  PhhttpdConfig phhttpd_config;
  HybridServerConfig hybrid_config;
  ThttpdEpollConfig epoll_config;   // edge_triggered forced on for kThttpdEpollEt
  PhhttpdKqueueConfig kqueue_config;
  size_t rt_queue_max = kDefaultRtQueueMax;

  // Optional flight recorder (borrowed; must outlive the run). When set it
  // is attached to the kernel and fault plane and receives phase marks at
  // the warmup/generate/drain boundaries. Pure observer: attaching one
  // leaves every seeded run bit-identical, inline or pooled.
  FlightRecorder* recorder = nullptr;
};

struct BenchmarkResult {
  // Offered load / topology (the pool shape echoes the config).
  double target_rate = 0;
  int inactive = 0;
  int workers = 0;
  int cpus = 0;
  std::string mode;

  // Reply-rate reduction (FIGS 4-9, 11-13).
  double reply_avg = 0;
  double reply_min = 0;
  double reply_max = 0;
  double reply_stddev = 0;

  // Error accounting (FIG 10).
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t errors = 0;
  uint64_t pending = 0;
  double error_pct = 0;

  // Latency (FIG 14), milliseconds.
  double median_conn_ms = 0;
  double p90_conn_ms = 0;

  // Observability. server_stats, phhttpd_fell_back_to_poll and
  // hybrid_in_signal_mode describe the first server (inline: the only one);
  // worker_stats holds every server's counters.
  KernelStats kernel_stats;
  ServerStats server_stats;
  std::vector<ServerStats> worker_stats;
  // Where every charged nanosecond of virtual CPU went, by category.
  // Invariant: attribution.Sum() == total time charged (busy time).
  TimeAttribution attribution;
  SimDuration busy_time = 0;
  uint64_t inactive_reconnects = 0;
  uint64_t trickle_bytes = 0;
  bool phhttpd_fell_back_to_poll = false;
  // busy_time / (wall * cpus): >1 is impossible, ~1/cpus on one busy worker.
  double cpu_utilization = 0;
  size_t rt_queue_peak = 0;  // worst server process

  // SMP observables. The per-CPU ledgers exist only for pool runs; their
  // total equals the busy time spent under workers. Context switches and
  // exclusive waits are kernel_stats' smp.* and wait.* rows.
  uint64_t total_accepted = 0;
  // Process wakes triggered by listener SYN notifications; the herd metric.
  uint64_t listener_syn_wakeups = 0;
  double wakeups_per_accept = 0;
  std::vector<SimDuration> cpu_busy;

  // Fault-plane observability (all zero on a fault-free run).
  FaultStats fault_stats;
  // Per-bucket reply rates over the generation window — the recovery-time
  // signal the torture bench reduces.
  std::vector<double> reply_series;
  uint64_t client_retries = 0;
  uint64_t abusive_aborts = 0;
  uint64_t slowloris_reconnects = 0;
  // True when the hybrid server ended the run back in RT-signal mode (i.e.
  // it recovered from its poll excursion).
  bool hybrid_in_signal_mode = false;
  // False when server setup itself failed (e.g. an open-EMFILE window active
  // at t=0); the run is skipped rather than crashed.
  bool setup_ok = true;

  // Ingress attack & defense observability (all zero when unused).
  AttackStats attack_stats;
  FilterChainStats chain_stats;
  DefenseStats defense_stats;
  uint64_t syn_backlog_peak = 0;  // worst listener shard

  // Transport-plane observability (all zero when the plane is off).
  TransportStats transport_stats;

  // RunSignature(*this): every outcome above, for double-run gates. Two runs
  // of the same config must produce the same string, byte for byte.
  std::string signature;
};

BenchmarkResult RunBenchmark(const BenchmarkRunConfig& config);

// The run's canonical signature: every outcome a BenchmarkResult carries as
// one string, bar the config echoes and copies of signed values. The pool
// digest comes first (counts, herd, per-worker and ingress counters, the
// attribution and per-CPU ledgers, the reply series), then the value of
// every ToRows() row of the kernel, each worker, and the fault, attack,
// chain, defense and transport planes, then the client-side and reduced
// scalars. A counter is signed once it has its ToRows() row, and
// RunSignatureTest fails for a counter without one.
std::string RunSignature(const BenchmarkResult& result);

// Builds the server `config.server` names on `sys`, with that kind's
// options from `config`. `wake_one` bakes in a kSharedWakeOne pool's
// exclusive waiters: /dev/poll's for thttpd-devpoll and hybrid, poll()'s for
// phhttpd's fallback path (its signal-mode wake-one is the listener's
// round-robin delivery, set by the WorkerPool). The caller runs Setup() and
// then SetupEvents().
std::unique_ptr<HttpServerBase> MakeServer(const BenchmarkRunConfig& config, Sys* sys,
                                           const StaticContent* content, bool wake_one);

}  // namespace scio

#endif  // SRC_LOAD_BENCHMARK_RUN_H_
