// MICRO-2: google-benchmark microbenchmarks of the in-kernel interest-set
// hash table (§3.1) — insert/lookup/erase cost versus set size, and the cost
// of the paper's doubling growth rule.

#include <benchmark/benchmark.h>

#include "src/core/interest_table.h"

namespace {

void BM_InsertSequential(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    scio::InterestHashTable table;
    for (int fd = 0; fd < n; ++fd) {
      benchmark::DoNotOptimize(table.FindOrInsert(fd));
    }
    benchmark::DoNotOptimize(table.bucket_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InsertSequential)->Arg(64)->Arg(512)->Arg(4096)->Arg(32768);

void BM_Lookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  scio::InterestHashTable table;
  for (int fd = 0; fd < n; ++fd) {
    table.FindOrInsert(fd);
  }
  int fd = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(fd));
    fd = (fd + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lookup)->Arg(64)->Arg(512)->Arg(4096)->Arg(32768);

void BM_ChurnInsertErase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  scio::InterestHashTable table;
  for (int fd = 0; fd < n; ++fd) {
    table.FindOrInsert(fd);
  }
  int fd = n;
  for (auto _ : state) {
    table.FindOrInsert(fd);
    table.Erase(fd - n);  // keep the population constant
    ++fd;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChurnInsertErase)->Arg(512)->Arg(4096);

void BM_FullScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  scio::InterestHashTable table;
  for (int fd = 0; fd < n; ++fd) {
    table.FindOrInsert(fd);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    table.ForEach([&](scio::Interest& interest) { sum += static_cast<uint64_t>(interest.fd); });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FullScan)->Arg(64)->Arg(512)->Arg(4096)->Arg(32768);

}  // namespace

BENCHMARK_MAIN();
