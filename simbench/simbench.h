// simbench: the repository's benchmark of the simulator.
//
// One process runs one named workload: its legs (calls into the public
// harnesses RunBenchmark / RunSmpBenchmark, or the idle-fleet harness in
// workloads.cc) back to back as a batch, batch after batch, and reduces
// them to two kinds of numbers kept apart:
//   - real cost of running the simulator (wall, CPU, RSS, set-up time);
//   - modelled behaviour of the simulated server (bit-identical per seed).
// A traced run adds per-layer counts from the public result structs, unit
// costs from small layer drivers (drivers.cc), and spans around every call.

#ifndef SIMBENCH_SIMBENCH_H_
#define SIMBENCH_SIMBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fault/fault_plane.h"
#include "src/kernel/kernel_stats.h"
#include "src/sim/time.h"
#include "src/trace/charge_category.h"
#include "src/trace/mem_ledger.h"
#include "src/trace/time_attribution.h"
#include "src/transport/transport_plane.h"

namespace simbench {

// Seed that reproduces the settings of the checked-in benches.
inline constexpr uint64_t kDefaultSeed = 42;
// A leg's latency percentiles count only when it holds this many samples.
inline constexpr size_t kMinConnSamples = 2000;
// bench_million_idle's storage gate.
inline constexpr double kBytesPerConnGate = 256.0;

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Real cost of the benchmark process over an interval: wall clock and
// getrusage(RUSAGE_SELF), which covers every thread of the process.
struct OsUsage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;  // ru_nvcsw + ru_nivcsw

  OsUsage& operator+=(const OsUsage& o);
};
OsUsage SampleUsage();
OsUsage operator-(const OsUsage& a, const OsUsage& b);
double PeakRssMb();

// Everything one leg produced. Real fields are measured around the call;
// the rest is copied from the harness's result struct.
struct LegOutcome {
  std::string name;
  bool ok = true;
  std::string failure;  // first failed check, empty when ok
  void Fail(const std::string& why) {
    if (ok) {
      failure = why;
    }
    ok = false;
  }

  // Real cost.
  OsUsage cost;        // the measured part of the leg
  double setup_s = 0;  // idle legs only: the ramp

  // Modelled request outcomes.
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t errors = 0;
  uint64_t pending = 0;
  double reply_avg = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  uint64_t samples = 0;  // successful connections behind the percentiles

  // Modelled CPU: busy time, its share of the simulated span (per CPU on
  // SMP legs), and where it went.
  scio::SimDuration busy = 0;
  double utilization = 0;
  scio::TimeAttribution attribution;

  // Layer counts.
  uint64_t population = 0;  // connections held besides the request load
  scio::KernelStats kernel;
  scio::TransportStats transport;
  uint64_t packets_lost = 0;
  uint64_t loop_iterations = 0;
  uint64_t recorder_events = 0;

  // SMP legs.
  bool smp = false;
  uint64_t accepted = 0;
  uint64_t syn_wakeups = 0;
  double cpu_busy_imbalance = 0;  // max/min per-CPU busy

  // Idle legs: ledger at the plateau and the population it holds.
  bool idle = false;
  scio::MemLedger mem;
  uint64_t open_conns = 0;

  // Every modelled quantity, printed at full precision: batches of one
  // seed must agree on it byte for byte.
  std::string signature;
  // paper_idle501 legs: the row bench_fig15_successors writes for them.
  std::string fig15_row;
};

// --- reducers (reduce.cc) ---------------------------------------------------

double Median(std::vector<double> values);

// Requests that failed over requests attempted, pooled over legs; every
// request of a leg that failed a check counts as failed.
double PooledErrorPct(const std::vector<LegOutcome>& legs);
double SuccessPct(const std::vector<LegOutcome>& legs);
// Modelled busy microseconds per successful reply.
double CpuUsPerReply(const std::vector<LegOutcome>& legs);
double MeanReplyRate(const std::vector<LegOutcome>& legs);
// Mean over legs holding >= kMinConnSamples samples of each leg's median
// (p90 when `p90`); 0 when no leg qualifies.
double MeanConnMs(const std::vector<LegOutcome>& legs, bool p90);
uint64_t ConnSamples(const std::vector<LegOutcome>& legs);
// Mean over legs of the modelled busy share, in percent.
double BusyPct(const std::vector<LegOutcome>& legs);

// Shapes the layer drivers replay, read off a workload's kernel counters.
struct ScanShape {
  double per_call = 0;        // entries examined per call
  double ready_fraction = 0;  // share of them that needed work / were ready
};
scio::KernelStats SumKernelStats(const std::vector<LegOutcome>& legs);
ScanShape DevPollShape(const scio::KernelStats& k);  // hinted fraction
ScanShape PollShape(const scio::KernelStats& k);
double EventsPerCall(uint64_t events, uint64_t calls);

// Owning src/ module of a charge category.
const char* ModuleOf(scio::ChargeCat cat);

// Metric-name grammar: starts with a letter or digit, then [A-Za-z0-9_.-],
// at most 64 characters. Units: [A-Za-z0-9_/%.-], at most 16.
bool ValidMetricName(const std::string& name);
bool ValidUnit(const std::string& unit);

// JSON number with every digit of the double.
std::string FullPrecision(double v);

}  // namespace simbench

#endif  // SIMBENCH_SIMBENCH_H_
