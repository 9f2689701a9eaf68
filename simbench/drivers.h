// Layer drivers: unit costs of single modules, timed through their public
// APIs (Simulator, SimKernel, FdTable, Sys, Link, TransportPlane,
// SmpScheduler, RequestParser) at shapes read off a workload's own counts.
// src/posix is left out: it measures the host kernel, not this program.

#ifndef SIMBENCH_DRIVERS_H_
#define SIMBENCH_DRIVERS_H_

#include "simbench/simbench.h"
#include "simbench/spans.h"

namespace simbench {

struct DriverShapes {
  size_t population = 0;    // connections held: event-queue depth, fd occupancy
  ScanShape devpoll;        // interests per DP_POLL, hinted fraction
  ScanShape poll;           // fds per poll(), ready fraction
  double epoll_events = 0;  // events per epoll_wait
  double kq_events = 0;     // events per kevent
  size_t read_bytes = 1;    // bytes per read(): the request parser's fragment
};

// Reads every count off the batch's legs.
DriverShapes ShapesOf(const std::vector<LegOutcome>& legs);

// One span per driver call; returns the driver metrics (ns or us).
MetricMap RunDrivers(const DriverShapes& shapes, SpanRecorder* spans);

}  // namespace simbench

#endif  // SIMBENCH_DRIVERS_H_
