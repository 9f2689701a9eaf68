// Simulated time representation.
//
// All simulated clocks in scio count integer nanoseconds from the start of a
// run. Nanosecond resolution matters because the cost model charges sub-
// microsecond amounts (e.g. 50 ns per pollfd copied in); with int64_t ticks a
// run can still span ~292 years of simulated time before overflow.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>

namespace scio {

// A point in simulated time, in nanoseconds since the simulation epoch.
using SimTime = int64_t;

// A span of simulated time, in nanoseconds.
using SimDuration = int64_t;

// Sentinel meaning "never": later than any reachable simulation time.
inline constexpr SimTime kSimTimeNever = INT64_MAX;

constexpr SimDuration Nanos(int64_t n) { return n; }
constexpr SimDuration Micros(int64_t us) { return us * 1000; }
constexpr SimDuration Millis(int64_t ms) { return ms * 1000 * 1000; }
constexpr SimDuration Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

// Fractional constructors, for durations read from the command line.
constexpr SimDuration MillisF(double ms) { return static_cast<SimDuration>(ms * 1e6); }
constexpr SimDuration SecondsF(double s) { return static_cast<SimDuration>(s * 1e9); }

constexpr double ToMicros(SimDuration d) { return static_cast<double>(d) / 1e3; }
constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e9; }

}  // namespace scio

#endif  // SRC_SIM_TIME_H_
