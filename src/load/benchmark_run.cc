#include "src/load/benchmark_run.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/load/abusive_clients.h"
#include "src/load/httperf.h"
#include "src/load/inactive_pool.h"
#include "src/metrics/percentile.h"
#include "src/metrics/rate_series.h"

namespace scio {

std::string ServerKindName(ServerKind kind) {
  switch (kind) {
    case ServerKind::kThttpdPoll:
      return "thttpd-poll";
    case ServerKind::kThttpdDevPoll:
      return "thttpd-devpoll";
    case ServerKind::kPhhttpd:
      return "phhttpd";
    case ServerKind::kHybrid:
      return "hybrid";
    case ServerKind::kThttpdEpoll:
      return "thttpd-epoll";
    case ServerKind::kThttpdEpollEt:
      return "thttpd-epoll-et";
    case ServerKind::kPhhttpdKqueue:
      return "phhttpd-kqueue";
  }
  return "unknown";
}

std::unique_ptr<HttpServerBase> MakeServer(const BenchmarkRunConfig& config, Sys* sys,
                                           const StaticContent* content, bool wake_one) {
  ThttpdDevPollConfig devpoll = config.devpoll_config;
  devpoll.devpoll.exclusive_wait = devpoll.devpoll.exclusive_wait || wake_one;
  switch (config.server) {
    case ServerKind::kThttpdPoll:
      return std::make_unique<ThttpdPoll>(sys, content, config.server_config,
                                          config.poll_options);
    case ServerKind::kThttpdDevPoll:
      return std::make_unique<ThttpdDevPoll>(sys, content, config.server_config, devpoll);
    case ServerKind::kPhhttpd:
      if (wake_one) {
        PollSyscallOptions opts;
        opts.exclusive_wait = true;
        sys->poll_syscall() = PollSyscall(&sys->kernel(), &sys->proc(), opts);
      }
      return std::make_unique<Phhttpd>(sys, content, config.server_config,
                                       config.phhttpd_config);
    case ServerKind::kHybrid:
      return std::make_unique<HybridServer>(sys, content, config.server_config, devpoll,
                                            config.hybrid_config);
    case ServerKind::kThttpdEpoll:
    case ServerKind::kThttpdEpollEt: {
      ThttpdEpollConfig epoll = config.epoll_config;
      epoll.edge_triggered =
          config.server == ServerKind::kThttpdEpollEt || epoll.edge_triggered;
      return std::make_unique<ThttpdEpoll>(sys, content, config.server_config, epoll);
    }
    case ServerKind::kPhhttpdKqueue:
      return std::make_unique<PhhttpdKqueue>(sys, content, config.server_config,
                                             config.kqueue_config);
  }
  return nullptr;
}

namespace {

// Appends the value of every row of `stats`, then `end`.
template <typename Stats>
void AppendRows(std::ostream& out, const Stats& stats, char end) {
  for (const auto& [name, value] : stats.ToRows()) {
    out << value << ',';
  }
  out << end;
}

}  // namespace

std::string RunSignature(const BenchmarkResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.attempts << '|' << r.successes << '|' << r.errors << '|' << r.pending << '|'
      << r.total_accepted << '|' << r.listener_syn_wakeups << '|'
      << r.kernel_stats.smp_context_switches << '|' << r.kernel_stats.wait_exclusive_adds
      << '|' << r.kernel_stats.syscalls << '|';
  for (const ServerStats& s : r.worker_stats) {
    out << s.connections_accepted << ',' << s.responses_sent << ',' << s.loop_iterations
        << ';';
  }
  // Same seed must spend every nanosecond in the same place on the same CPU,
  // not just reach the same totals.
  out << r.attack_stats.syns_sent << '|' << r.chain_stats.connect_evals << '|'
      << r.chain_stats.dropped << '|' << r.chain_stats.rate_limit_drops << '|'
      << r.defense_stats.escalations << '|' << r.defense_stats.tier_peak << '|'
      << r.syn_backlog_peak << '|';
  out << r.attribution.Signature() << '|' << r.busy_time << '|';
  for (SimDuration d : r.cpu_busy) {
    out << d << ',';
  }
  out << '|';
  for (double rate : r.reply_series) {
    out << rate << ',';
  }
  // The digest above stays the prefix, so a signature pinned before the rest
  // was signed is still a prefix of today's; the rest signs every counter of
  // every plane and the reduced outcomes.
  out << '|';
  AppendRows(out, r.kernel_stats, '|');
  for (const ServerStats& s : r.worker_stats) {
    AppendRows(out, s, ';');
  }
  out << '|';
  AppendRows(out, r.fault_stats, '|');
  AppendRows(out, r.attack_stats, '|');
  AppendRows(out, r.chain_stats, '|');
  AppendRows(out, r.defense_stats, '|');
  AppendRows(out, r.transport_stats, '|');
  out << r.client_retries << '|' << r.abusive_aborts << '|' << r.slowloris_reconnects << '|'
      << r.inactive_reconnects << '|' << r.trickle_bytes << '|' << r.rt_queue_peak << '|'
      << r.phhttpd_fell_back_to_poll << '|' << r.hybrid_in_signal_mode << '|'
      << r.reply_avg << '|' << r.reply_min << '|' << r.reply_max << '|' << r.reply_stddev
      << '|' << r.error_pct << '|' << r.median_conn_ms << '|' << r.p90_conn_ms << '|'
      << r.cpu_utilization;
  return out.str();
}

BenchmarkResult RunBenchmark(const BenchmarkRunConfig& config) {
  Simulator sim;
  SimKernel kernel(&sim, config.cost);
  FaultPlane fault_plane(&sim, config.faults);
  kernel.set_fault_plane(&fault_plane);
  if (config.recorder != nullptr) {
    kernel.set_recorder(config.recorder);
    fault_plane.set_recorder(config.recorder);
    config.recorder->MarkPhase("warmup", 0);
    config.recorder->MarkPhase("generate", config.warmup);
    config.recorder->MarkPhase("drain", config.warmup + config.active.duration);
  }
  NetStack net(&kernel, config.net);
  net.InstallFaultPlane(&fault_plane);
  const bool filter_on = config.filter_enabled || !config.static_rules.empty() ||
                         config.adaptive_defense;
  std::unique_ptr<IngressFilterChain> chain;
  if (filter_on) {
    chain = std::make_unique<IngressFilterChain>(&kernel, config.filter_band_width);
    net.set_filter(chain.get());
    for (const FilterRule& rule : config.static_rules) {
      chain->Append(rule);
    }
  }
  // Declared after `net`: the plane detaches its sockets and deregisters
  // from the stack before either dies on unwind.
  std::unique_ptr<TransportPlane> transport;
  if (config.transport_enabled) {
    transport = std::make_unique<TransportPlane>(&kernel, &net, config.transport);
  }
  StaticContent content;
  content.AddDocument("/index.html", config.document_bytes);

  // The inline testbed is a one-worker pool that is never scheduled.
  const bool pooled = config.workers > 0;
  WorkerPoolConfig pool_config;
  pool_config.workers = pooled ? config.workers : 1;
  pool_config.cpus = pooled ? config.cpus : 1;
  pool_config.mode = config.mode;
  pool_config.worker_max_fds = config.server_max_fds;
  pool_config.seed = config.seed;
  pool_config.rt_queue_max = config.rt_queue_max;
  const bool wake_one = config.mode == ListenerMode::kSharedWakeOne;
  WorkerPool pool(&kernel, &net, pool_config, [&config, &content, wake_one](Sys* sys) {
    return MakeServer(config, sys, &content, wake_one);
  });

  BenchmarkResult result;
  result.target_rate = config.active.request_rate;
  result.inactive = config.inactive.connections;
  result.workers = config.workers;
  result.cpus = config.cpus;
  result.mode = ListenerModeName(config.mode);
  if (pool.Setup() < 0) {
    result.setup_ok = false;
    result.fault_stats = fault_plane.stats();
    result.signature = RunSignature(result);
    return result;
  }

  // The distinct listeners: the shared one, or one per shard. One defense
  // spans them all, and every server reports into it.
  std::vector<std::shared_ptr<SimListener>> shards;
  for (int i = 0; i < pool.workers(); ++i) {
    auto shard = pool.sys(i).listener(pool.server(i).listener_fd());
    if (std::find(shards.begin(), shards.end(), shard) == shards.end()) {
      shards.push_back(std::move(shard));
    }
  }
  std::unique_ptr<AdaptiveDefense> defense;
  if (config.adaptive_defense) {
    defense = std::make_unique<AdaptiveDefense>(&kernel, chain.get(), config.defense);
    for (const auto& shard : shards) {
      defense->AddListener(shard);
    }
    for (int i = 0; i < pool.workers(); ++i) {
      pool.server(i).set_defense(defense.get());
    }
  }
  const std::shared_ptr<SimListener>& listener = pool.head_listener();
  InactivePool inactive(&net, listener, config.inactive);
  HttperfGenerator generator(&net, listener, config.active);
  AbusiveFleet abusive(&net, listener, config.abusive);
  AttackCampaign attack(&net, listener, config.attack);

  attack.Start();
  inactive.Start();
  if (abusive.enabled()) {
    const SimTime abusive_start = config.abusive.start_at;
    const SimDuration abusive_for =
        config.abusive.active_for > 0
            ? config.abusive.active_for
            : config.warmup + config.active.duration - abusive_start;
    abusive.Start(abusive_start, abusive_for);
  }
  generator.Start(config.warmup);
  const SimTime until = config.warmup + config.active.duration + config.drain;
  // The one fork: inline, the server's loop runs straight on the event
  // engine; pooled, the SmpScheduler interleaves the workers' loops.
  if (pooled) {
    pool.Run(until);
  } else {
    pool.server(0).Run(until);
  }
  inactive.Shutdown();
  abusive.Shutdown();
  attack.Shutdown();
  kernel.RequestStop();

  // --- reduction ---------------------------------------------------------------
  // Only samples inside the generation window count (the drain tail would
  // drag the average down even for a perfect server).
  PercentileTracker conn_times;
  conn_times.Reserve(generator.records().size());
  RateSeries window(config.sample_width, config.active.duration);
  for (const ConnRecord& record : generator.records()) {
    ++result.attempts;
    switch (record.outcome) {
      case ConnOutcome::kOk:
        ++result.successes;
        window.Add(record.end - config.warmup);
        conn_times.Add(ToMillis(record.ConnTime()));
        break;
      case ConnOutcome::kPending:
        ++result.pending;
        break;
      default:
        ++result.errors;
        break;
    }
  }
  const StreamingStats rate_stats = window.Summary();
  result.reply_series = window.Rates();
  result.reply_avg = rate_stats.mean();
  result.reply_min = rate_stats.min();
  result.reply_max = rate_stats.max();
  result.reply_stddev = rate_stats.stddev();
  const uint64_t resolved = result.successes + result.errors;
  result.error_pct =
      resolved == 0 ? 0.0
                    : 100.0 * static_cast<double>(result.errors) / static_cast<double>(resolved);
  result.median_conn_ms = conn_times.Median();
  result.p90_conn_ms = conn_times.Percentile(90.0);

  result.kernel_stats = kernel.stats();
  for (int i = 0; i < pool.workers(); ++i) {
    const ServerStats& stats = pool.server(i).stats();
    result.worker_stats.push_back(stats);
    result.total_accepted += stats.connections_accepted;
    result.rt_queue_peak = std::max(result.rt_queue_peak, pool.proc(i).rt_queue_peak());
  }
  const HttpServerBase& first = pool.server(0);
  result.server_stats = first.stats();
  if (const auto* ph = dynamic_cast<const Phhttpd*>(&first)) {
    result.phhttpd_fell_back_to_poll = ph->in_poll_fallback();
  }
  if (const auto* hybrid = dynamic_cast<const HybridServer*>(&first)) {
    result.hybrid_in_signal_mode = hybrid->mode() == EventMode::kSignals;
  }
  result.listener_syn_wakeups = kernel.stats().wait_listener_syn_wakeups;
  result.wakeups_per_accept =
      result.total_accepted == 0
          ? 0.0
          : static_cast<double>(result.listener_syn_wakeups) /
                static_cast<double>(result.total_accepted);

  result.attribution = kernel.attribution();
  result.busy_time = kernel.busy_time();
  if (pool.scheduler() != nullptr) {
    for (int cpu = 0; cpu < pool.scheduler()->cpus(); ++cpu) {
      result.cpu_busy.push_back(pool.scheduler()->cpu_ledger(cpu).Sum());
    }
  }
  result.cpu_utilization =
      kernel.now() == 0 ? 0.0
                        : static_cast<double>(kernel.busy_time()) /
                              (static_cast<double>(kernel.now()) * pool_config.cpus);
  result.inactive_reconnects = inactive.reconnects();
  result.trickle_bytes = inactive.trickle_bytes_sent();

  result.fault_stats = fault_plane.stats();
  result.client_retries = generator.retries();
  result.abusive_aborts = abusive.aborts_completed();
  result.slowloris_reconnects = abusive.slowloris_reconnects();
  result.attack_stats = attack.stats();
  if (chain != nullptr) {
    result.chain_stats = chain->stats();
  }
  if (defense != nullptr) {
    result.defense_stats = defense->stats();
  }
  if (transport != nullptr) {
    result.transport_stats = transport->stats();
  }
  for (const auto& shard : shards) {
    result.syn_backlog_peak =
        std::max<uint64_t>(result.syn_backlog_peak, shard->syn_backlog_peak());
  }
  result.signature = RunSignature(result);

  // `sim` outlives `net` on unwind; drop undelivered events (which hold
  // sockets that release ports on destruction) while the stack is alive.
  sim.DiscardPending();
  return result;
}

}  // namespace scio
