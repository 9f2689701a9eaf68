// ABL-3: the paper's imagined hybrid server (§4) — RT signals for latency at
// light load, /dev/poll for throughput under pressure, switching on RT queue
// occupancy — against pure phhttpd and pure thttpd+/dev/poll.

#include <iostream>

#include "bench/figure_harness.h"
#include "src/metrics/table.h"

int main(int argc, char** argv) {
  using namespace scio;
  FigureSweepConfig base;
  base.inactive = 251;
  ApplyCommandLine(argc, argv, &base);

  const ServerKind kinds[3] = {ServerKind::kPhhttpd, ServerKind::kThttpdDevPoll,
                               ServerKind::kHybrid};
  std::vector<BenchmarkResult> results[3];
  for (int i = 0; i < 3; ++i) {
    FigureSweepConfig config = base;
    config.figure_id = std::string("abl3_") + ServerKindName(kinds[i]);
    config.title = "hybrid crossover";
    config.server = kinds[i];
    results[i] = RunFigureSweep(config);
  }

  std::cout << "=== abl3 summary: avg reply / median ms / mode switches ===\n\n";
  Table table({"rate", "phhttpd_avg", "devpoll_avg", "hybrid_avg", "phhttpd_ms",
               "devpoll_ms", "hybrid_ms", "hybrid_switches"});
  for (size_t i = 0; i < base.rates.size(); ++i) {
    table.AddRow({base.rates[i], results[0][i].reply_avg, results[1][i].reply_avg,
                  results[2][i].reply_avg, results[0][i].median_conn_ms,
                  results[1][i].median_conn_ms, results[2][i].median_conn_ms,
                  static_cast<double>(results[2][i].server_stats.mode_switches)},
                 1);
  }
  table.Print(std::cout);
  table.WriteCsvFile("abl3_hybrid.csv");
  return 0;
}
