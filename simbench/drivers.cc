#include "simbench/drivers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "src/core/sys.h"
#include "src/http/request_parser.h"
#include "src/kernel/fd_table.h"
#include "src/net/link.h"
#include "src/smp/smp_scheduler.h"
#include "src/transport/transport_plane.h"

namespace simbench {
namespace {

using scio::ChargeCat;
using scio::Millis;
using scio::Seconds;

// Drivers that build connections cap them here: the unit cost per entry is
// what is measured, and building 100k pairs would dominate the driver.
constexpr size_t kMaxDriverConns = 4096;
constexpr size_t kMaxDriverPopulation = 1 << 17;

template <typename Fn>
double ElapsedNs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

size_t Clamp(double v, size_t lo, size_t hi) {
  return std::clamp(static_cast<size_t>(std::llround(std::max(v, 0.0))), lo, hi);
}

// A descriptor-table entry with no behaviour.
class NullFile : public scio::File {
 public:
  using File::File;
  scio::PollEvents PollMask() const override { return 0; }
};

// A small world: one server process holding `n` established connections
// whose client ends the driver writes to.
class World {
 public:
  explicit World(size_t n, bool with_transport = false)
      : kernel_(&sim_),
        net_(&kernel_),
        proc_(kernel_.CreateProcess("driver", static_cast<int>(n) + 64)),
        sys_(&kernel_, &proc_, &net_) {
    if (with_transport) {
      transport_ = std::make_unique<scio::TransportPlane>(&kernel_, &net_);
    }
    listen_fd_ = sys_.Listen(1024);
    auto listener = sys_.listener(listen_fd_);
    while (fds_.size() < n) {
      const size_t batch = std::min<size_t>(64, n - fds_.size());
      for (size_t i = 0; i < batch; ++i) {
        clients_.push_back(net_.Connect(listener));
      }
      Settle();
      for (int fd = sys_.Accept(listen_fd_); fd >= 0; fd = sys_.Accept(listen_fd_)) {
        fds_.push_back(fd);
      }
    }
    Settle();  // SYN-ACKs land
  }
  ~World() { sim_.DiscardPending(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  void Settle() { sim_.AdvanceTo(sim_.now() + Millis(1)); }
  // Makes `count` server fds readable, spread evenly over the set.
  void MakeReadable(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      clients_[i * fds_.size() / count]->Write(scio::Chunk{"x", 0});
    }
    Settle();
  }

  scio::Simulator& sim() { return sim_; }
  scio::SimKernel& kernel() { return kernel_; }
  scio::Sys& sys() { return sys_; }
  scio::TransportPlane* transport() { return transport_.get(); }
  const std::vector<int>& fds() const { return fds_; }
  scio::SimSocket& client(size_t i) { return *clients_[i]; }

 private:
  scio::Simulator sim_;
  scio::SimKernel kernel_;
  scio::NetStack net_;
  scio::Process& proc_;
  scio::Sys sys_;
  // After net_: detaches its sockets before the stack goes.
  std::unique_ptr<scio::TransportPlane> transport_;
  int listen_fd_ = -1;
  std::vector<std::shared_ptr<scio::SimSocket>> clients_;
  std::vector<int> fds_;
};

// ScheduleAfter + fire, with `depth` other events pending, spread over the
// next second like a population's timers.
double ScheduleFireNs(size_t depth) {
  scio::Simulator sim;
  uint64_t fired = 0;
  for (size_t i = 0; i < depth; ++i) {
    sim.ScheduleAt(Seconds(1) + static_cast<scio::SimTime>(i) * (Seconds(1) / depth),
                   [&fired] { ++fired; });
  }
  constexpr int kOps = 20000;
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < kOps; ++i) {
      sim.ScheduleAfter(1, [&fired] { ++fired; });
      sim.AdvanceTo(sim.now() + 1);
    }
  });
  sim.DiscardPending();
  return fired == static_cast<uint64_t>(kOps) ? ns / kOps : -1;
}

// SimKernel::Charge with no due events.
double ChargeNs() {
  scio::Simulator sim;
  scio::SimKernel kernel(&sim);
  constexpr int kOps = 1000000;
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < kOps; ++i) {
      kernel.Charge(1, ChargeCat::kOther);
    }
  });
  return kernel.busy_time() == kOps ? ns / kOps : -1;
}

// FdTable allocate + close, and Get, at the workload's occupancy.
void FdTableNs(size_t occupancy, double* alloc_close_ns, double* get_ns) {
  scio::Simulator sim;
  scio::SimKernel kernel(&sim);
  scio::FdTable table(static_cast<int>(occupancy) + 64);
  auto file = std::make_shared<NullFile>(&kernel);
  for (size_t i = 0; i < occupancy; ++i) {
    (void)table.Allocate(file);
  }
  constexpr int kOps = 500000;
  *alloc_close_ns = ElapsedNs([&] {
                      for (int i = 0; i < kOps; ++i) {
                        (void)table.Close(table.Allocate(file));
                      }
                    }) /
                    kOps;
  size_t hits = 0;
  *get_ns = ElapsedNs([&] {
              for (int i = 0; i < kOps; ++i) {
                hits += table.Get(static_cast<int>(static_cast<size_t>(i) % occupancy)) != nullptr;
              }
            }) /
            kOps;
  if (hits != static_cast<size_t>(kOps)) {
    *get_ns = -1;
  }
}

// Sys::DevPollPoll over `interests` with the hinted fraction made ready.
double DevPollScanNsPerInterest(const ScanShape& shape) {
  const size_t n = Clamp(shape.per_call, 1, kMaxDriverConns);
  World world(n);
  const int dp = world.sys().OpenDevPoll();
  std::vector<scio::PollFd> interests;
  for (int fd : world.fds()) {
    interests.push_back({fd, scio::kPollIn, 0});
  }
  if (dp < 0 || world.sys().DevPollWrite(dp, interests) < 0) {
    return -1;
  }
  world.MakeReadable(Clamp(shape.ready_fraction * static_cast<double>(n), 0, n));
  std::vector<scio::PollFd> out(n);
  const int calls = static_cast<int>(std::max<size_t>(1, 2000000 / n));
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < calls; ++i) {
      scio::DvPoll args{out.data(), static_cast<int>(n), 0};
      (void)world.sys().DevPollPoll(dp, &args);
    }
  });
  return ns / (static_cast<double>(calls) * static_cast<double>(n));
}

// Sys::Poll over the workload's pollfd set size and ready fraction.
double PollNsPerFd(const ScanShape& shape) {
  const size_t n = Clamp(shape.per_call, 1, kMaxDriverConns);
  World world(n);
  std::vector<scio::PollFd> fds;
  for (int fd : world.fds()) {
    fds.push_back({fd, scio::kPollIn, 0});
  }
  world.MakeReadable(Clamp(shape.ready_fraction * static_cast<double>(n), 0, n));
  const int calls = static_cast<int>(std::max<size_t>(1, 1000000 / n));
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < calls; ++i) {
      (void)world.sys().Poll(fds, 0);
    }
  });
  return ns / (static_cast<double>(calls) * static_cast<double>(n));
}

// Level-triggered Sys::EpollWait returning `events` ready of `n` interests.
double EpollWaitNs(size_t n, double events) {
  World world(n);
  const int ep = world.sys().OpenEpoll();
  for (int fd : world.fds()) {
    if (world.sys().EpollCtl(ep, scio::EpollOp::kAdd, fd, scio::kPollIn) < 0) {
      return -1;
    }
  }
  world.MakeReadable(Clamp(events, 1, n));
  std::vector<scio::PollFd> out(n);
  constexpr int kCalls = 100000;
  return ElapsedNs([&] {
           for (int i = 0; i < kCalls; ++i) {
             (void)world.sys().EpollWait(ep, out.data(), static_cast<int>(n), 0);
           }
         }) /
         kCalls;
}

// Sys::Kevent harvesting `events` level-triggered read knotes of `n`.
double KeventNs(size_t n, double events) {
  World world(n);
  const int kq = world.sys().OpenKqueue();
  std::vector<scio::KEvent> changes;
  for (int fd : world.fds()) {
    changes.push_back({fd, scio::kFiltRead, scio::kEvAdd, 0});
  }
  std::vector<scio::KEvent> out(n);
  if (kq < 0 || world.sys().Kevent(kq, changes, {}, 0) < 0) {
    return -1;
  }
  world.MakeReadable(Clamp(events, 1, n));
  constexpr int kCalls = 100000;
  return ElapsedNs([&] {
           for (int i = 0; i < kCalls; ++i) {
             (void)world.sys().Kevent(kq, {}, out, 0);
           }
         }) /
         kCalls;
}

// Sys::SigWaitInfo dequeuing one queued RT signal.
double RtDequeueNs() {
  constexpr size_t kConns = 32;
  World world(kConns);
  for (int fd : world.fds()) {
    if (world.sys().ArmAsync(fd, scio::kSigRtMin + 1) != 0) {
      return -1;
    }
  }
  double ns = 0;
  uint64_t dequeued = 0;
  for (int round = 0; round < 2000; ++round) {
    world.MakeReadable(kConns);  // one signal per connection
    ns += ElapsedNs([&] {
      for (size_t i = 0; i < kConns; ++i) {
        dequeued += world.sys().SigWaitInfo(0).has_value() ? 1 : 0;
      }
    });
  }
  return dequeued == 0 ? -1 : ns / static_cast<double>(dequeued);
}

// Link::Transmit and Link::TransmitSegment of one MTU frame through delivery.
double TransmitNs() {
  scio::Simulator sim;
  scio::Link link(&sim, 1e9, scio::Micros(150));
  uint64_t delivered = 0;
  constexpr int kOps = 200000;
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < kOps; ++i) {
      if (i % 2 == 0) {
        link.Transmit(1500, [&delivered] { ++delivered; });
      } else {
        (void)link.TransmitSegment(1500, 0, [&delivered] { ++delivered; });
      }
      sim.AdvanceTo(std::max(sim.now(), link.busy_until()) + link.latency());
    }
  });
  return delivered == static_cast<uint64_t>(kOps) ? ns / kOps : -1;
}

// One transport connection pair: a 6 KB response written, delivered and
// acknowledged; nanoseconds per data segment sent.
double SegmentNs() {
  World world(1, /*with_transport=*/true);
  const int fd = world.fds().front();
  auto server_socket = world.sys().socket(fd);
  scio::SimSocket& client = world.client(0);
  constexpr size_t kBody = 6 * 1024;
  const uint64_t segments_before = world.transport()->stats().segments_sent;
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < 2000; ++i) {
      if (world.sys().Write(fd, scio::Chunk{"", kBody}) != static_cast<long>(kBody)) {
        return;
      }
      world.sim().StepUntil(
          [&] { return client.available() >= kBody && server_socket->in_flight() == 0; },
          world.sim().now() + Seconds(1));
      (void)client.Read(kBody);
    }
  });
  const uint64_t segments = world.transport()->stats().segments_sent - segments_before;
  return segments == 0 ? -1 : ns / static_cast<double>(segments);
}

// Four workers on four virtual CPUs, each charging in turn: every charge
// hands the baton to the next worker. Microseconds per handoff.
double HandoffUs() {
  scio::Simulator sim;
  scio::SimKernel kernel(&sim);
  constexpr int kWorkers = 4;
  constexpr int kCharges = 5000;
  std::vector<scio::Process*> procs;
  for (int i = 0; i < kWorkers; ++i) {
    procs.push_back(&kernel.CreateProcess("worker" + std::to_string(i)));
  }
  scio::SmpScheduler sched(&kernel, kWorkers, 1);
  for (scio::Process* proc : procs) {
    sched.AddWorker(proc, [&kernel] {
      for (int i = 0; i < kCharges; ++i) {
        kernel.Charge(scio::Micros(1), ChargeCat::kOther);
      }
    });
  }
  const double ns = ElapsedNs([&] { sched.Run(); });
  return ns / 1e3 / (kWorkers * kCharges);
}

// RequestParser over a request fed in the workload's read-sized fragments.
double ParseNs(size_t fragment) {
  static const std::string kRequest =
      "GET /index.html HTTP/1.0\r\nHost: server\r\nUser-Agent: httperf/0.8\r\n\r\n";
  fragment = std::clamp<size_t>(fragment, 1, kRequest.size());
  scio::RequestParser parser;
  constexpr int kOps = 200000;
  int complete = 0;
  const double ns = ElapsedNs([&] {
    for (int i = 0; i < kOps; ++i) {
      for (size_t off = 0; off < kRequest.size(); off += fragment) {
        parser.Feed(std::string_view(kRequest).substr(off, fragment));
      }
      complete += parser.state() == scio::RequestParser::State::kComplete;
      parser.Reset();
    }
  });
  return complete == kOps ? ns / kOps : -1;
}

}  // namespace

DriverShapes ShapesOf(const std::vector<LegOutcome>& legs) {
  DriverShapes shapes;
  scio::KernelStats k = SumKernelStats(legs);
  for (const LegOutcome& leg : legs) {
    shapes.population = std::max<size_t>(shapes.population, leg.population);
  }
  shapes.devpoll = DevPollShape(k);
  shapes.poll = PollShape(k);
  shapes.epoll_events = EventsPerCall(k.epoll_events_delivered, k.epoll_waits);
  shapes.kq_events = EventsPerCall(k.kq_events_delivered, k.kq_kevents);
  shapes.read_bytes = Clamp(EventsPerCall(k.bytes_read, k.reads), 1, 1 << 20);
  return shapes;
}

MetricMap RunDrivers(const DriverShapes& shapes, SpanRecorder* spans) {
  MetricMap m;
  const size_t population = std::clamp<size_t>(shapes.population, 1, kMaxDriverPopulation);
  const size_t conns = std::min(population, kMaxDriverConns);
  // Workloads without a devpoll or poll leg still time the scan, at the
  // paper's 501-interest set.
  ScanShape devpoll = shapes.devpoll;
  if (devpoll.per_call == 0) {
    devpoll.per_call = 501;
  }
  ScanShape poll = shapes.poll;
  if (poll.per_call == 0) {
    poll.per_call = 501;
  }
  auto run = [&](const std::string& name, const std::string& unit, auto&& fn) {
    ScopedSpan span(spans, "driver:" + name);
    m[name] = {fn(), unit};
  };
  run("sim.schedule_fire_ns", "ns", [&] { return ScheduleFireNs(population); });
  run("kernel.charge_ns", "ns", [] { return ChargeNs(); });
  double alloc_close = 0;
  double get = 0;
  {
    ScopedSpan span(spans, "driver:kernel.fd_table");
    FdTableNs(population, &alloc_close, &get);
  }
  m["kernel.fd_alloc_close_ns"] = {alloc_close, "ns"};
  m["kernel.fd_get_ns"] = {get, "ns"};
  run("core.devpoll.scan_ns_per_interest", "ns", [&] { return DevPollScanNsPerInterest(devpoll); });
  run("core.poll.ns_per_fd", "ns", [&] { return PollNsPerFd(poll); });
  run("core.epoll.wait_ns", "ns", [&] { return EpollWaitNs(conns, shapes.epoll_events); });
  run("core.kq.kevent_ns", "ns", [&] { return KeventNs(conns, shapes.kq_events); });
  run("core.rt.dequeue_ns", "ns", [] { return RtDequeueNs(); });
  run("net.transmit_ns", "ns", [] { return TransmitNs(); });
  run("transport.segment_ns", "ns", [] { return SegmentNs(); });
  run("smp.handoff_us", "us", [] { return HandoffUs(); });
  run("http.parse_ns", "ns", [&] { return ParseNs(shapes.read_bytes); });
  return m;
}

}  // namespace simbench
