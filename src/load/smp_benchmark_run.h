// Former names of the SMP harness, kept for callers not yet moved onto
// RunBenchmark: a pool run is a BenchmarkRunConfig with workers > 0.

#ifndef SRC_LOAD_SMP_BENCHMARK_RUN_H_
#define SRC_LOAD_SMP_BENCHMARK_RUN_H_

#include "src/load/benchmark_run.h"

namespace scio {

using SmpBenchmarkConfig = BenchmarkRunConfig;
using SmpBenchmarkResult = BenchmarkResult;

inline BenchmarkResult RunSmpBenchmark(const BenchmarkRunConfig& config) {
  return RunBenchmark(config);
}

}  // namespace scio

#endif  // SRC_LOAD_SMP_BENCHMARK_RUN_H_
