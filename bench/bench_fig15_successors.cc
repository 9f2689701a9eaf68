// FIG 15 (extension): the 1999 interfaces and their successors, head to
// head. Every event core the simulator models — stock poll(), /dev/poll
// (hinted), RT signals, epoll level- and edge-triggered, and kqueue — serves
// the same seeded workload at the paper's three inactive-connection loads
// (1 / 251 / 501). The CSV carries the reply-rate series plus the full
// per-category virtual-CPU breakdown, so the table answers *where* each
// interface spends its cycles, not just how fast it goes.
//
// Gates (exit code = number of failures):
//   - attribution.Sum() == busy_time for every run;
//   - double-run determinism: one config per (server, load) runs twice and
//     the RunSignature, every counter of every plane, must match byte for
//     byte.
//
// Usage: bench_fig15_successors [--quick] [--rates=...] [--duration=S]
//   --quick   single mid rate, short duration (CI smoke).

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/benchmark_run.h"
#include "src/metrics/table.h"

namespace scio {
namespace {

BenchmarkRunConfig MakeConfig(ServerKind server, int inactive, double rate,
                              SimDuration duration) {
  BenchmarkRunConfig config;
  config.server = server;
  config.active.request_rate = rate;
  config.active.duration = duration;
  // Same seeds across servers at a given (load, rate): every core faces the
  // identical arrival sequence.
  config.active.seed = 42 + static_cast<uint64_t>(rate);
  config.inactive.connections = inactive;
  config.inactive.seed = 42 * 31 + static_cast<uint64_t>(rate);
  config.sample_width = Seconds(1);
  return config;
}

}  // namespace
}  // namespace scio

int main(int argc, char** argv) {
  using namespace scio;

  std::vector<double> rates = {500, 700, 900, 1100};
  SimDuration duration = Seconds(10);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      rates = {700};
      duration = Seconds(4);
    } else if (arg.rfind("--rates=", 0) == 0) {
      rates.clear();
      std::stringstream ss(arg.substr(8));
      std::string item;
      while (std::getline(ss, item, ',')) {
        rates.push_back(std::atof(item.c_str()));
      }
    } else if (arg.rfind("--duration=", 0) == 0) {
      duration = SecondsF(std::atof(arg.c_str() + 11));
    }
  }

  const std::vector<ServerKind> servers = {
      ServerKind::kThttpdPoll,    ServerKind::kThttpdDevPoll,
      ServerKind::kPhhttpd,       ServerKind::kThttpdEpoll,
      ServerKind::kThttpdEpollEt, ServerKind::kPhhttpdKqueue};
  const std::vector<int> loads = {1, 251, 501};
  int failures = 0;

  std::cout << "=== fig15: successor event cores vs the 1999 interfaces ===\n\n";
  Table table({"server", "load", "rate", "reply_avg", "err_pct", "median_ms",
               "event_cpu_ms"});

  std::vector<std::string> csv_headers = {
      "server",    "load",      "rate",    "reply_avg", "reply_min",
      "reply_max", "reply_sd",  "err_pct", "median_ms", "p90_ms"};
  for (size_t i = 0; i < kChargeCatCount; ++i) {
    csv_headers.push_back(std::string("t_") +
                          ChargeCatName(static_cast<ChargeCat>(i)) + "_ms");
  }
  Table csv_table(std::move(csv_headers));

  for (ServerKind server : servers) {
    for (int load : loads) {
      for (double rate : rates) {
        const BenchmarkResult result =
            RunBenchmark(MakeConfig(server, load, rate, duration));
        if (!result.setup_ok) {
          std::cout << "SETUP FAILED: " << ServerKindName(server) << " load "
                    << load << "\n";
          ++failures;
          continue;
        }
        if (result.attribution.Sum() != result.busy_time) {
          std::cout << "ATTRIBUTION GATE FAILED: " << ServerKindName(server)
                    << " load " << load << " rate " << rate << ": sum "
                    << result.attribution.Sum() << " != busy "
                    << result.busy_time << "\n";
          ++failures;
        }

        // "Event CPU": what the core's own machinery cost this run — the
        // interface-specific categories, excluding request processing.
        const SimDuration event_cpu =
            result.attribution[ChargeCat::kPollfdCopyin] +
            result.attribution[ChargeCat::kDriverPoll] +
            result.attribution[ChargeCat::kWaitqueue] +
            result.attribution[ChargeCat::kResultCopyout] +
            result.attribution[ChargeCat::kInterestUpdate] +
            result.attribution[ChargeCat::kDevpollScan] +
            result.attribution[ChargeCat::kHintMark] +
            result.attribution[ChargeCat::kEpollCtl] +
            result.attribution[ChargeCat::kEpollReady] +
            result.attribution[ChargeCat::kEpollWait] +
            result.attribution[ChargeCat::kKqRegister] +
            result.attribution[ChargeCat::kKqFilter] +
            result.attribution[ChargeCat::kSignalEnqueue] +
            result.attribution[ChargeCat::kSignalDequeue] +
            result.attribution[ChargeCat::kSignalFlush];
        std::vector<std::string> row = {ServerKindName(server),
                                        std::to_string(load),
                                        std::to_string(static_cast<int>(rate))};
        for (double v : {result.reply_avg, result.error_pct,
                         result.median_conn_ms, ToMillis(event_cpu)}) {
          std::ostringstream os;
          os << std::fixed << std::setprecision(1) << v;
          row.push_back(os.str());
        }
        table.AddRow(std::move(row));

        std::vector<std::string> csv_row = {ServerKindName(server),
                                            std::to_string(load)};
        auto fmt = [&csv_row](double v, int precision) {
          std::ostringstream os;
          os << std::fixed << std::setprecision(precision) << v;
          csv_row.push_back(os.str());
        };
        for (double v : {rate, result.reply_avg, result.reply_min,
                         result.reply_max, result.reply_stddev,
                         result.error_pct, result.median_conn_ms,
                         result.p90_conn_ms}) {
          fmt(v, 1);
        }
        for (size_t i = 0; i < kChargeCatCount; ++i) {
          fmt(ToMillis(result.attribution[static_cast<ChargeCat>(i)]), 3);
        }
        csv_table.AddRow(std::move(csv_row));
      }

      // Determinism gate: the last rate, rerun, must be bit-identical.
      const BenchmarkRunConfig repro =
          MakeConfig(server, load, rates.back(), duration);
      if (RunBenchmark(repro).signature != RunBenchmark(repro).signature) {
        std::cout << "DETERMINISM GATE FAILED: " << ServerKindName(server)
                  << " load " << load << "\n";
        ++failures;
      }
    }
  }

  table.Print(std::cout);
  if (csv_table.WriteCsvFile("fig15_successors.csv")) {
    std::cout << "\n(csv written to fig15_successors.csv)\n";
  }
  std::cout << "\n" << (failures == 0 ? "ALL PASS" : "FAILURES: " + std::to_string(failures))
            << "\n";
  return failures;
}
