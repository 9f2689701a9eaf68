// The benchmark's named workloads: which legs each runs, with which seeds,
// and the per-leg correctness checks.

#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "simbench/reference.h"
#include "simbench/simbench.h"
#include "simbench/spans.h"

namespace simbench {

// Every workload the binary runs. BENCHMARK.json lists all but idle_100k,
// whose real time is too sensitive to other tenants of a shared host to
// hold a bound (see README.md).
const std::vector<std::string>& WorkloadNames();

// Whether the workload's real times are read at the reference host speed
// (reference.h). Not for smp_4cpu: its time goes to the host kernel's
// thread switches (sys CPU ~2.5x user), which the reference loop does not
// exercise, and scaling by the loop made its spread wider, not narrower.
bool UsesReferenceSpeed(const std::string& workload);

struct BatchOptions {
  uint64_t seed = kDefaultSeed;
  // Traced batches attach a FlightRecorder to single-CPU legs and record
  // spans; `spans` is null in untraced batches.
  SpanRecorder* spans = nullptr;
  int first_leg_id = 0;  // span leg ids continue across batches
  // When set, one reference unit runs before every leg (outside the leg's
  // measured interval), sampling the host's speed through the batch.
  ReferenceClock* reference = nullptr;
};

struct SetupPass {
  // Idle workloads report 0: their set-up (the ramp) is part of every leg
  // and reported in LegOutcome::setup_s.
  double wall_s = 0;
  // SMP configurations, in leg order: busy time charged outside every
  // worker (the pool's set-up). A measured leg must repeat it exactly, so
  // everything after set-up is charged to some CPU's ledger.
  std::vector<scio::SimDuration> outside_workers;
};

// Every configuration of the workload once with an empty generation window.
SetupPass RunSetupPass(const std::string& workload, const BatchOptions& options);

// Every leg of the workload once, back to back.
std::vector<LegOutcome> RunBatch(const std::string& workload, const BatchOptions& options,
                                 const SetupPass& setup);

// bench_million_idle's six cores, each ramping `population` silent
// connections and holding them through the idle window: idle_100k's legs,
// and at a small population the traced run's storage-plane driver.
std::vector<LegOutcome> RunIdleCores(size_t population, const BatchOptions& options);

// Golden check: at the default seed, paper_idle501 must reproduce the
// load-501 rows of results/fig15_successors.csv cell for cell. Marks each
// leg whose row differs (or is missing) as failed; returns the number of
// mismatches. A no-op for other workloads and seeds.
int ApplyGoldenCheck(const std::string& workload, uint64_t seed, const std::string& csv_path,
                     std::vector<LegOutcome>* legs);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
