// SMP scaling: herd wakeups and multi-worker throughput, 1 -> 8 CPUs.
//
// Two experiments the paper's single-CPU testbed could not run:
//
//  1. Herd ablation (light load, 501 inactive connections, workers mostly
//     asleep): counts listener wakeups per accepted connection. Shared
//     wake-all reproduces the pre-2.3 thundering herd (wakeups/accept grows
//     with N); shared wake-one (WQ_FLAG_EXCLUSIVE + round-robin signals)
//     pins it at ~1; sharded accept has no shared queue at all.
//
//  2. Scaling sweep (offered load past single-CPU saturation, gigabit link):
//     reply rate as workers/CPUs grow. One CPU saturates; sharded N-CPU
//     pools should scale near-linearly until the load is absorbed.
//
// Every configuration runs twice with the same seed; any RunSignature
// mismatch is a determinism failure and the bench exits non-zero.
// smp_scaling.csv holds one row per configuration: the table's columns plus
// the run's RunSignature, which signs every counter of every plane, so a
// checked-in copy pins the whole schedule, not just the printed digits.
//
// Usage: bench_smp_scaling [--quick] [--json=FILE]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"

namespace scio {
namespace {

struct Row {
  BenchmarkResult r;
  std::string server;
};

BenchmarkRunConfig BaseConfig(ServerKind server, ListenerMode mode, int n, bool quick) {
  BenchmarkRunConfig config;
  config.server = server;
  config.mode = mode;
  config.workers = n;
  config.cpus = n;
  config.seed = 1789;
  config.active.seed = 17;
  config.inactive.seed = 23;
  config.warmup = quick ? Millis(500) : Seconds(1);
  config.drain = quick ? Seconds(1) : Seconds(2);
  return config;
}

// Phase 1: light load, large inactive population — workers sleep between
// SYNs, so every SYN finds the whole pool on the listener's wait queue.
BenchmarkRunConfig HerdConfig(ServerKind server, ListenerMode mode, int n, bool quick) {
  BenchmarkRunConfig config = BaseConfig(server, mode, n, quick);
  config.active.request_rate = 600;
  config.active.duration = quick ? Seconds(2) : Seconds(5);
  config.inactive.connections = 501;
  return config;
}

// Phase 2: offered load well past one CPU's capacity, on a gigabit link so
// the wire is not the bottleneck.
BenchmarkRunConfig ScalingConfig(ServerKind server, ListenerMode mode, int n,
                                 bool quick) {
  BenchmarkRunConfig config = BaseConfig(server, mode, n, quick);
  config.active.request_rate = 4500;
  config.active.duration = quick ? Seconds(2) : Seconds(5);
  config.inactive.connections = 501;
  config.net.bandwidth_bps = 1e9;
  return config;
}

// Runs the configuration twice; aborts the bench on a signature mismatch.
BenchmarkResult RunChecked(const BenchmarkRunConfig& config, int* failures) {
  std::cerr << "running " << ServerKindName(config.server) << " "
            << ListenerModeName(config.mode) << " n=" << config.workers << " ...\n";
  const BenchmarkResult first = RunBenchmark(config);
  const BenchmarkResult second = RunBenchmark(config);
  if (first.signature != second.signature) {
    std::cerr << "DETERMINISM FAILURE: " << ListenerModeName(config.mode) << " n="
              << config.workers << " " << ServerKindName(config.server)
              << ": double runs diverged\n";
    ++*failures;
  }
  return first;
}

void PrintTable(const char* title, const std::vector<Row>& rows) {
  std::printf("\n%s\n", title);
  std::printf(
      "%-16s %-16s %4s | %10s %10s %8s | %12s %10s %10s\n", "server", "mode", "n",
      "replies/s", "err%", "accepts", "wakeups/acc", "ctx-sw", "cpu-util");
  for (const Row& row : rows) {
    std::printf(
        "%-16s %-16s %4d | %10.1f %10.2f %8llu | %12.3f %10llu %10.3f\n",
        row.server.c_str(), row.r.mode.c_str(), row.r.workers, row.r.reply_avg,
        row.r.error_pct, static_cast<unsigned long long>(row.r.total_accepted),
        row.r.wakeups_per_accept,
        static_cast<unsigned long long>(row.r.kernel_stats.smp_context_switches),
        row.r.cpu_utilization);
  }
}

std::string Fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void AddCsvRows(Table& csv, const char* phase, const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    csv.AddRow({phase, row.server, row.r.mode, std::to_string(row.r.workers),
                Fixed(row.r.reply_avg, 1), Fixed(row.r.error_pct, 2),
                std::to_string(row.r.total_accepted), Fixed(row.r.wakeups_per_accept, 3),
                std::to_string(row.r.kernel_stats.smp_context_switches),
                Fixed(row.r.cpu_utilization, 3),
                "\"" + row.r.signature + "\""});
  }
}

void AppendJson(std::ostringstream& out, const char* phase, const Row& row,
                bool* first) {
  if (!*first) {
    out << ",\n";
  }
  *first = false;
  out.precision(17);
  out << "    {\"phase\": \"" << phase << "\", \"server\": \"" << row.server
      << "\", \"mode\": \"" << row.r.mode << "\", \"workers\": " << row.r.workers
      << ", \"cpus\": " << row.r.cpus << ", \"reply_avg\": " << row.r.reply_avg
      << ", \"error_pct\": " << row.r.error_pct
      << ", \"total_accepted\": " << row.r.total_accepted
      << ", \"listener_syn_wakeups\": " << row.r.listener_syn_wakeups
      << ", \"wakeups_per_accept\": " << row.r.wakeups_per_accept
      << ", \"context_switches\": " << row.r.kernel_stats.smp_context_switches
      << ", \"exclusive_adds\": " << row.r.kernel_stats.wait_exclusive_adds
      << ", \"cpu_utilization\": " << row.r.cpu_utilization
      << ", \"median_conn_ms\": " << row.r.median_conn_ms << "}";
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;

  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  const std::vector<ServerKind> servers = {ServerKind::kThttpdDevPoll,
                                           ServerKind::kPhhttpd};
  const std::vector<ListenerMode> modes = {ListenerMode::kSharedWakeAll,
                                           ListenerMode::kSharedWakeOne,
                                           ListenerMode::kSharded};
  const std::vector<int> sizes = quick ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 2, 4, 8};

  int failures = 0;
  std::ostringstream json;
  json << "{\n  \"results\": [\n";
  bool first_row = true;

  std::vector<Row> herd_rows;
  for (ServerKind server : servers) {
    for (ListenerMode mode : modes) {
      for (int n : sizes) {
        const BenchmarkResult r =
            RunChecked(HerdConfig(server, mode, n, quick), &failures);
        if (!r.setup_ok) {
          std::cerr << "setup failed: herd " << ListenerModeName(mode) << " n=" << n
                    << "\n";
          ++failures;
          continue;
        }
        Row row{r, ServerKindName(server)};
        AppendJson(json, "herd", row, &first_row);
        herd_rows.push_back(std::move(row));
      }
    }
  }
  PrintTable("== Herd ablation: light load, 501 inactive, workers sleeping ==",
             herd_rows);

  std::vector<Row> scaling_rows;
  for (ServerKind server : servers) {
    for (ListenerMode mode : modes) {
      for (int n : sizes) {
        const BenchmarkResult r =
            RunChecked(ScalingConfig(server, mode, n, quick), &failures);
        if (!r.setup_ok) {
          std::cerr << "setup failed: scaling " << ListenerModeName(mode) << " n=" << n
                    << "\n";
          ++failures;
          continue;
        }
        Row row{r, ServerKindName(server)};
        AppendJson(json, "scaling", row, &first_row);
        scaling_rows.push_back(std::move(row));
      }
    }
  }
  PrintTable("== Scaling sweep: 4500 conn/s offered, gigabit link ==", scaling_rows);

  Table csv({"phase", "server", "mode", "n", "replies_per_s", "err_pct", "accepts",
             "wakeups_per_accept", "ctx_switches", "cpu_util", "signature"});
  AddCsvRows(csv, "herd", herd_rows);
  AddCsvRows(csv, "scaling", scaling_rows);
  csv.WriteCsvFile("smp_scaling.csv");

  // --- acceptance checks -------------------------------------------------------
  // (a) wake-all herd grows with N; (b) wake-one stays ~1; (c) sharded
  // throughput scales 1 -> 4 CPUs under saturating load.
  auto find = [](const std::vector<Row>& rows, const std::string& server,
                 const std::string& mode, int n) -> const Row* {
    for (const Row& row : rows) {
      if (row.server == server && row.r.mode == mode && row.r.workers == n) {
        return &row;
      }
    }
    return nullptr;
  };
  const int big = quick ? 4 : 8;
  for (const char* server : {"thttpd-devpoll", "phhttpd"}) {
    const Row* herd_big = find(herd_rows, server, "shared-wake-all", big);
    const Row* herd_one = find(herd_rows, server, "shared-wake-all", 1);
    const Row* one_big = find(herd_rows, server, "shared-wake-one", big);
    if (herd_big == nullptr || herd_one == nullptr || one_big == nullptr) {
      std::cerr << "CHECK SKIPPED (missing rows): " << server << "\n";
      ++failures;
      continue;
    }
    if (herd_big->r.wakeups_per_accept <= 1.0 ||
        herd_big->r.wakeups_per_accept <= herd_one->r.wakeups_per_accept) {
      std::cerr << "CHECK FAILED: " << server
                << " wake-all herd did not grow with N (n=" << big << ": "
                << herd_big->r.wakeups_per_accept << ", n=1: "
                << herd_one->r.wakeups_per_accept << ")\n";
      ++failures;
    }
    if (one_big->r.wakeups_per_accept > 1.5) {
      std::cerr << "CHECK FAILED: " << server << " wake-one wakeups/accept = "
                << one_big->r.wakeups_per_accept << " (expected ~1)\n";
      ++failures;
    }
    const Row* sharded1 = find(scaling_rows, server, "sharded", 1);
    const Row* sharded4 = find(scaling_rows, server, "sharded", 4);
    if (sharded1 == nullptr || sharded4 == nullptr) {
      std::cerr << "CHECK SKIPPED (missing scaling rows): " << server << "\n";
      ++failures;
      continue;
    }
    if (sharded4->r.reply_avg < 3.0 * sharded1->r.reply_avg) {
      std::cerr << "CHECK FAILED: " << server << " sharded 4-CPU reply rate "
                << sharded4->r.reply_avg << " < 3x 1-CPU " << sharded1->r.reply_avg
                << "\n";
      ++failures;
    }
  }

  json << "\n  ],\n  \"determinism_failures\": " << failures << "\n}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
  }

  if (failures != 0) {
    std::printf("\n%d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall determinism + scaling checks passed\n");
  return 0;
}
