#include "src/load/httperf.h"

#include <algorithm>
#include <cassert>
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
  auto arrive_at = [this, start_at](double offset) {
    ConnRecord* record = &records_.emplace_back();
    net_->kernel()->sim().ScheduleAt(start_at + static_cast<SimTime>(offset),
                                     [this, record] { Launch(record); });
  };

  // Arrival offsets cover the whole window, so the offered rate holds over
  // every sample bucket regardless of the arrival process.
  if (workload_.poisson_arrivals) {
    double clock = rng_.Exponential(gap_ns);
    while (clock < static_cast<double>(workload_.duration)) {
      arrive_at(clock);
      clock += rng_.Exponential(gap_ns);
    }
  } else {
    const auto total =
        static_cast<size_t>(workload_.request_rate * ToSeconds(workload_.duration));
    for (size_t i = 0; i < total; ++i) {
      const double jitter = rng_.UniformReal(-kArrivalJitter, kArrivalJitter) * gap_ns;
      const double at = gap_ns * static_cast<double>(i) + jitter;
      arrive_at(at < 0 ? 0 : at);
    }
  }
  // Every launch, retries included, could hold a slot at once.
  clients_.set_limit(records_.size() * static_cast<size_t>(1 + workload_.max_retries));
}

// sciolint: hotpath
void HttperfGenerator::Launch(ConnRecord* record) {
  if (modelled_.size() >= park_at_) {
    ParkReleasedClients();
  }
  const long slot = clients_.AllocateLowest();
  assert(slot >= 0 && "Start sized the slots for every launch");
  ActiveClient& client = clients_.At(static_cast<size_t>(slot));
  // `this` and the slot fill std::function's inline buffer exactly; one more
  // capture would allocate on every launch.
  client.on_done = [this, slot](ConnOutcome outcome) { OnClientDone(slot, outcome); };
  client.Start(&context_, record);
}

void HttperfGenerator::OnClientDone(long slot, ConnOutcome outcome) {
  ActiveClient& client = clients_.At(static_cast<size_t>(slot));
  ConnRecord* record = client.record();
  if (client.holds_socket()) {
    modelled_.push_back(slot);
  } else {
    clients_.ReleaseAt(static_cast<size_t>(slot));
  }
  MaybeRetry(record, outcome);
}

// Runs from Launch, an event of its own, so no socket it frees is on the
// call stack.
void HttperfGenerator::ParkReleasedClients() {
  std::erase_if(modelled_, [this](long slot) {
    if (!clients_.At(static_cast<size_t>(slot)).DropReleasedSocket()) {
      return false;
    }
    clients_.ReleaseAt(static_cast<size_t>(slot));
    return true;
  });
  park_at_ = std::max(kFirstPark, 2 * modelled_.size());
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
