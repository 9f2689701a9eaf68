#include "src/load/httperf.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/http/http_message.h"

namespace scio {

namespace {

constexpr double kArrivalJitter = 0.1;  // +/- fraction of the inter-arrival gap
constexpr SimDuration kRetryBackoff = Millis(50);      // first retry delay
constexpr SimDuration kRetryBackoffCap = Millis(800);  // delay never exceeds this

}  // namespace

HttperfGenerator::HttperfGenerator(NetStack* net, std::shared_ptr<SimListener> listener,
                                   ActiveWorkload workload)
    : net_(net),
      workload_(workload),
      rng_(workload.seed),
      context_{net, std::move(listener), BuildHttpRequest(workload.path),
               workload.client_timeout, {}} {}

void HttperfGenerator::Start(SimTime start_at) {
  const double gap_ns = 1e9 / workload_.request_rate;

  // Generate arrival offsets covering the whole window, so the offered rate
  // holds over every sample bucket regardless of the arrival process.
  std::vector<double> offsets;
  if (workload_.poisson_arrivals) {
    double clock = rng_.Exponential(gap_ns);
    while (clock < static_cast<double>(workload_.duration)) {
      offsets.push_back(clock);
      clock += rng_.Exponential(gap_ns);
    }
  } else {
    const auto total =
        static_cast<size_t>(workload_.request_rate * ToSeconds(workload_.duration));
    for (size_t i = 0; i < total; ++i) {
      const double jitter = rng_.UniformReal(-kArrivalJitter, kArrivalJitter) * gap_ns;
      const double at = gap_ns * static_cast<double>(i) + jitter;
      offsets.push_back(at < 0 ? 0 : at);
    }
  }

  for (double offset : offsets) {
    records_.emplace_back();
    ConnRecord* record = &records_.back();
    net_->kernel()->sim().ScheduleAt(start_at + static_cast<SimTime>(offset),
                                     [this, record] { Launch(record); });
  }
}

// sciolint: hotpath
void HttperfGenerator::Launch(ConnRecord* record) {
  ActiveClient& client = clients_.emplace_back(&context_, record);
  if (workload_.max_retries > 0) {
    client.on_done = [this, record](ConnOutcome outcome) { MaybeRetry(record, outcome); };
  }
  client.Start();
}

void HttperfGenerator::MaybeRetry(ConnRecord* record, ConnOutcome outcome) {
  const bool retryable = outcome == ConnOutcome::kRefused ||
                         outcome == ConnOutcome::kTimeout ||
                         outcome == ConnOutcome::kReset;
  if (!retryable || record->attempts > workload_.max_retries) {
    return;
  }
  // Capped exponential backoff: 1st retry after kRetryBackoff, then double.
  SimDuration delay = kRetryBackoff;
  for (int i = 1; i < record->attempts && delay < kRetryBackoffCap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, kRetryBackoffCap);
  ++retries_;
  record->outcome = ConnOutcome::kPending;  // the request is live again
  net_->kernel()->sim().ScheduleAfter(delay, [this, record] { Launch(record); });
}

}  // namespace scio
