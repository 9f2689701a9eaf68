// Workload definitions and per-connection outcome records.
//
// The paper's load (§5) has two components:
//  - an httperf-style open-loop stream of real requests at a target rate;
//  - a constant population of "inactive" high-latency connections that never
//    complete a request, and reopen if the server drops them.

#ifndef SRC_LOAD_WORKLOAD_H_
#define SRC_LOAD_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "src/sim/time.h"

namespace scio {

struct ActiveWorkload {
  double request_rate = 500.0;           // connections (= requests) per second
  SimDuration duration = Seconds(10);    // generation window
  std::string path = "/index.html";
  SimDuration client_timeout = Millis(500);  // httperf --timeout equivalent
  // Poisson arrivals model the bursty, unpredictable load the paper says
  // high-latency Internet clients induce (§5); false = evenly spaced with
  // +/- 10% jitter, like an unmodified httperf.
  bool poisson_arrivals = true;
  uint64_t seed = 1;
  // Real clients retry refused/timed-out/reset requests with capped
  // exponential backoff, which is exactly what prolongs an overload episode
  // after the original fault clears. 0 disables retries (the seed behaviour).
  int max_retries = 0;
};

// Pathological-client load: clients that consume server resources while
// contributing nothing. These are the "abusive" profiles the torture bench
// turns on; zero populations (the default) disable the fleet entirely.
struct AbusiveWorkload {
  // Slowloris writers: hold a connection open forever by dribbling one
  // request byte per write_interval — they pin fds and interest-set slots.
  int slowloris_connections = 0;
  SimDuration slowloris_write_interval = Millis(200);
  SimDuration slowloris_reconnect_delay = Millis(100);
  // Connect-and-abort churn: complete the handshake, then slam the
  // connection shut — the server pays accept + close for nothing.
  double abort_churn_rate = 0.0;      // connects per second
  SimDuration abort_after = Millis(5);  // dwell between connect and abort
  // Activity window, relative to run start. active_for == 0 means "until the
  // load-generation window ends"; a finite window makes the attack clear so
  // recovery can be measured.
  SimDuration start_at = 0;
  SimDuration active_for = 0;
  uint64_t seed = 3;
};

struct InactiveWorkload {
  int connections = 0;
  // A high-latency client dribbles its request; each trickle byte arrives at
  // this interval and keeps the connection alive (and the server busy).
  // Zero disables trickling (connections are then closed by the server's
  // idle timeout and reopened by the client, as the paper describes).
  SimDuration trickle_interval = Millis(400);
  SimDuration reconnect_delay = Millis(100);
  uint64_t seed = 2;
};

enum class ConnOutcome {
  kPending,   // still in flight when the run ended
  kOk,        // full response received
  kTimeout,   // client gave up waiting
  kRefused,   // connection refused (backlog overflow)
  kReset,     // connection closed before the response completed
  kBadReply,  // malformed or non-200 response
  kNoPorts,   // client out of ephemeral ports
};

struct ConnRecord {
  SimTime start = 0;
  SimTime end = 0;
  ConnOutcome outcome = ConnOutcome::kPending;
  int attempts = 0;  // connection attempts, 1 + retries taken

  // Connection time (connect -> full response), the FIG 14 metric.
  SimDuration ConnTime() const { return end - start; }
  bool IsError() const {
    return outcome != ConnOutcome::kOk && outcome != ConnOutcome::kPending;
  }
};

}  // namespace scio

#endif  // SRC_LOAD_WORKLOAD_H_
