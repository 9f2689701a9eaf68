#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "simbench/simbench.h"

namespace simbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

OsUsage& OsUsage::operator+=(const OsUsage& o) {
  wall_s += o.wall_s;
  user_s += o.user_s;
  sys_s += o.sys_s;
  ctx_switches += o.ctx_switches;
  return *this;
}

OsUsage SampleUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  OsUsage u;
  u.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  u.user_s = Seconds(ru.ru_utime);
  u.sys_s = Seconds(ru.ru_stime);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

OsUsage operator-(const OsUsage& a, const OsUsage& b) {
  return {a.wall_s - b.wall_s, a.user_s - b.user_s, a.sys_s - b.sys_s,
          a.ctx_switches - b.ctx_switches};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double PooledErrorPct(const std::vector<LegOutcome>& legs) {
  uint64_t attempts = 0;
  uint64_t failed = 0;
  for (const LegOutcome& leg : legs) {
    attempts += leg.attempts;
    failed += leg.ok ? leg.errors : leg.attempts;
  }
  return attempts == 0 ? 0.0 : 100.0 * static_cast<double>(failed) / static_cast<double>(attempts);
}

double SuccessPct(const std::vector<LegOutcome>& legs) {
  uint64_t attempts = 0;
  uint64_t successes = 0;
  for (const LegOutcome& leg : legs) {
    attempts += leg.attempts;
    successes += leg.ok ? leg.successes : 0;
  }
  return attempts == 0 ? 0.0
                       : 100.0 * static_cast<double>(successes) / static_cast<double>(attempts);
}

double CpuUsPerReply(const std::vector<LegOutcome>& legs) {
  scio::SimDuration busy = 0;
  uint64_t replies = 0;
  for (const LegOutcome& leg : legs) {
    busy += leg.busy;
    replies += leg.ok ? leg.successes : 0;
  }
  return replies == 0 ? 0.0 : scio::ToMicros(busy) / static_cast<double>(replies);
}

double MeanReplyRate(const std::vector<LegOutcome>& legs) {
  if (legs.empty()) {
    return 0;
  }
  double sum = 0;
  for (const LegOutcome& leg : legs) {
    sum += leg.reply_avg;
  }
  return sum / static_cast<double>(legs.size());
}

double MeanConnMs(const std::vector<LegOutcome>& legs, bool p90) {
  double sum = 0;
  int counted = 0;
  for (const LegOutcome& leg : legs) {
    if (leg.samples >= kMinConnSamples) {
      sum += p90 ? leg.p90_ms : leg.p50_ms;
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / counted;
}

uint64_t ConnSamples(const std::vector<LegOutcome>& legs) {
  uint64_t n = 0;
  for (const LegOutcome& leg : legs) {
    n += leg.samples;
  }
  return n;
}

double BusyPct(const std::vector<LegOutcome>& legs) {
  if (legs.empty()) {
    return 0;
  }
  double sum = 0;
  for (const LegOutcome& leg : legs) {
    sum += leg.utilization;
  }
  return 100.0 * sum / static_cast<double>(legs.size());
}

scio::KernelStats SumKernelStats(const std::vector<LegOutcome>& legs) {
  scio::KernelStats sum;
  for (const LegOutcome& leg : legs) {
#define SCIO_X(field, row_name) sum.field += leg.kernel.field;
    SCIO_KERNEL_STATS_FIELDS(SCIO_X)
#undef SCIO_X
  }
  return sum;
}

ScanShape DevPollShape(const scio::KernelStats& k) {
  ScanShape shape;
  if (k.devpoll_polls != 0) {
    shape.per_call = static_cast<double>(k.devpoll_interests_scanned) /
                     static_cast<double>(k.devpoll_polls);
  }
  if (k.devpoll_interests_scanned != 0) {
    shape.ready_fraction = static_cast<double>(k.devpoll_driver_calls) /
                           static_cast<double>(k.devpoll_interests_scanned);
  }
  return shape;
}

ScanShape PollShape(const scio::KernelStats& k) {
  ScanShape shape;
  if (k.poll_calls != 0) {
    shape.per_call =
        static_cast<double>(k.poll_fds_scanned) / static_cast<double>(k.poll_calls);
  }
  if (k.poll_fds_scanned != 0) {
    shape.ready_fraction = static_cast<double>(k.poll_results_copied) /
                           static_cast<double>(k.poll_fds_scanned);
  }
  return shape;
}

double EventsPerCall(uint64_t events, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(calls);
}

const char* ModuleOf(scio::ChargeCat cat) {
  using scio::ChargeCat;
  switch (cat) {
    case ChargeCat::kSyscallEntry:
    case ChargeCat::kAccept:
    case ChargeCat::kReadCopy:
    case ChargeCat::kSendBytes:
    case ChargeCat::kClose:
      return "kernel";
    case ChargeCat::kPollfdCopyin:
    case ChargeCat::kDriverPoll:
    case ChargeCat::kWaitqueue:
    case ChargeCat::kResultCopyout:
    case ChargeCat::kInterestUpdate:
    case ChargeCat::kDevpollScan:
    case ChargeCat::kHintMark:
    case ChargeCat::kEpollCtl:
    case ChargeCat::kEpollReady:
    case ChargeCat::kEpollWait:
    case ChargeCat::kKqRegister:
    case ChargeCat::kKqFilter:
    case ChargeCat::kSignalEnqueue:
    case ChargeCat::kSignalDequeue:
    case ChargeCat::kSignalFlush:
      return "core";
    case ChargeCat::kInterrupt:
    case ChargeCat::kFilterMatch:
    case ChargeCat::kFilterDrop:
    case ChargeCat::kSynCookie:
      return "net";
    case ChargeCat::kHttpParse:
    case ChargeCat::kHttpRespond:
      return "http";
    case ChargeCat::kOverflowHandoff:
    case ChargeCat::kServerLoop:
    case ChargeCat::kPollfdRebuild:
    case ChargeCat::kConnMgmt:
    case ChargeCat::kTimerSweep:
      return "servers";
    case ChargeCat::kSmpSched:
      return "smp";
    case ChargeCat::kTcpSegment:
    case ChargeCat::kTcpAck:
    case ChargeCat::kTcpRetransmit:
    case ChargeCat::kTcpPacing:
      return "transport";
    case ChargeCat::kOther:
      return "other";
  }
  return "other";
}

namespace {

bool AllOf(const std::string& s, size_t max_len, bool (*ok)(char)) {
  return !s.empty() && s.size() <= max_len && std::all_of(s.begin(), s.end(), ok);
}

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  return AllOf(name, 64, [](char c) { return IsAlnum(c) || c == '_' || c == '.' || c == '-'; }) &&
         IsAlnum(name.front());
}

bool ValidUnit(const std::string& unit) {
  return AllOf(unit, 16, [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string FullPrecision(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace simbench
