// Diagnostic: one benchmark point with full kernel/server counter dumps.
// Used to attribute virtual-CPU spending while calibrating the cost model.
//
// --attribution adds the per-category virtual-CPU ledger (with the
// sum==busy-time invariant checked), --trace=FILE attaches a flight recorder
// and writes Chrome trace-event JSON (load it in about:tracing or Perfetto)
// plus the per-phase breakdown table.

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"
#include "src/trace/flight_recorder.h"

int main(int argc, char** argv) {
  using namespace scio;
  BenchmarkRunConfig config;
  config.server = ServerKind::kThttpdPoll;
  config.active.request_rate = 500;
  config.active.duration = Seconds(4);
  config.inactive.connections = 501;

  bool show_attribution = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--server=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "poll") {
        config.server = ServerKind::kThttpdPoll;
      } else if (name == "devpoll") {
        config.server = ServerKind::kThttpdDevPoll;
      } else if (name == "phhttpd") {
        config.server = ServerKind::kPhhttpd;
      } else if (name == "hybrid") {
        config.server = ServerKind::kHybrid;
      }
    } else if (arg.rfind("--rate=", 0) == 0) {
      config.active.request_rate = std::atof(arg.c_str() + 7);
    } else if (arg.rfind("--inactive=", 0) == 0) {
      config.inactive.connections = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--duration=", 0) == 0) {
      config.active.duration = SecondsF(std::atof(arg.c_str() + 11));
    } else if (arg.rfind("--trickle-ms=", 0) == 0) {
      config.inactive.trickle_interval = MillisF(std::atof(arg.c_str() + 13));
    } else if (arg == "--attribution") {
      show_attribution = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    }
  }

  FlightRecorder recorder;
  if (!trace_path.empty()) {
    config.recorder = &recorder;
  }

  const BenchmarkResult r = RunBenchmark(config);
  std::cout << "server=" << ServerKindName(config.server)
            << " rate=" << config.active.request_rate
            << " inactive=" << config.inactive.connections << "\n";
  std::cout << "reply avg/min/max/sd: " << r.reply_avg << " / " << r.reply_min << " / "
            << r.reply_max << " / " << r.reply_stddev << "\n";
  std::cout << "attempts=" << r.attempts << " ok=" << r.successes << " err=" << r.errors
            << " pending=" << r.pending << " err_pct=" << r.error_pct << "\n";
  std::cout << "median_ms=" << r.median_conn_ms << " p90_ms=" << r.p90_conn_ms << "\n";
  std::cout << "inactive reconnects=" << r.inactive_reconnects
            << " trickle_bytes=" << r.trickle_bytes << "\n";
  std::cout << "server: accepted=" << r.server_stats.connections_accepted
            << " responses=" << r.server_stats.responses_sent
            << " loops=" << r.server_stats.loop_iterations
            << " stale=" << r.server_stats.stale_events
            << " idle_timeouts=" << r.server_stats.idle_timeouts
            << " overflow_recoveries=" << r.server_stats.overflow_recoveries
            << " mode_switches=" << r.server_stats.mode_switches << "\n";
  std::cout << "phhttpd_poll_fallback=" << r.phhttpd_fell_back_to_poll
            << " cpu_utilization=" << r.cpu_utilization
            << " rt_queue_peak=" << r.rt_queue_peak << "\n\n";
  for (const auto& [name, value] : r.kernel_stats.ToRows()) {
    if (value != 0) {
      std::cout << "  " << name << " = " << value << "\n";
    }
  }

  if (show_attribution || !trace_path.empty()) {
    std::cout << "\n--- virtual-CPU attribution (ms charged) ---\n";
    for (const auto& [name, ns] : r.attribution.ToRows()) {
      if (ns != 0) {
        std::cout << "  " << name << " = " << ToMillis(ns) << "\n";
      }
    }
    std::cout << "  TOTAL = " << ToMillis(r.attribution.Sum())
              << " (busy = " << ToMillis(r.busy_time) << ")\n";
    if (r.attribution.Sum() != r.busy_time) {
      std::cerr << "ATTRIBUTION INVARIANT VIOLATED: sum "
                << r.attribution.Sum() << " != busy " << r.busy_time << "\n";
      return 1;
    }
  }

  if (!trace_path.empty()) {
    std::cout << "\n--- flight recorder ---\n";
    std::cout << "events held=" << recorder.size()
              << " recorded=" << recorder.total_recorded()
              << " dropped=" << recorder.dropped() << "\n";
    recorder.PhaseBreakdown().Print(std::cout);
    if (recorder.WriteChromeTraceFile(trace_path)) {
      std::cout << "(chrome trace written to " << trace_path << ")\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
      return 1;
    }
  }
  return 0;
}
