// Heap traffic of the connection path, counted by the replacement operator
// new in bench/counting_new.cc. Once warm, a connect, accept and close whose
// sockets are released touches the heap not at all: the sockets come from
// the stack's pool, their receive queues and the listener backlog are rings
// with inline slots, the wake paths snapshot onto the stack, and the port
// allocator's rings keep their capacity. An HTTP exchange through a poll()
// or /dev/poll server costs two allocations per connection, the request and
// the response header each copied into the chunk that carries it: reads
// land in buffers their callers reuse, a write that is accepted whole moves
// its chunk, and a header that arrives whole is parsed where it lies.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "bench/counting_new.h"
#include "src/core/sys.h"
#include "src/http/http_message.h"
#include "src/load/active_client.h"
#include "src/servers/thttpd_devpoll.h"
#include "src/servers/thttpd_poll.h"

namespace scio {
namespace {

constexpr int kCycles = 1000;

class ConnAllocTest : public ::testing::Test {
 public:
  ConnAllocTest()
      : kernel_(&sim_),
        net_(&kernel_),
        proc_(kernel_.CreateProcess("server")),
        sys_(&kernel_, &proc_, &net_) {}
  ~ConnAllocTest() override { sim_.DiscardPending(); }

  // Lets every port in TIME-WAIT expire, and reaps them now: after one
  // round and one hold, the port allocator's rings have seen their peak.
  void DrainTimeWait() {
    sim_.AdvanceTo(sim_.now() + kDefaultTimeWait + Seconds(1));
    EXPECT_EQ(net_.ports().in_time_wait(sim_.now()), 0);
  }

  Simulator sim_;
  SimKernel kernel_;
  NetStack net_;
  Process& proc_;
  Sys sys_;
};

// One connection from SYN to release: connect, accept, both ends close, and
// the last references go, so the sockets return to the pool.
void ConnectAcceptClose(Simulator& sim, NetStack& net, Sys& sys, int listen_fd,
                        const std::shared_ptr<SimListener>& listener) {
  std::shared_ptr<SimSocket> client = net.Connect(listener);
  ASSERT_NE(client, nullptr);
  sim.StepUntil([&] { return listener->backlog_depth() > 0; }, sim.now() + Seconds(1));
  const int fd = sys.Accept(listen_fd);
  ASSERT_GE(fd, 0);
  sim.StepUntil([&] { return client->state() == SimSocket::State::kEstablished; },
                sim.now() + Seconds(1));
  client->Close();
  EXPECT_EQ(sys.Close(fd), 0);
  client.reset();
  sim.AdvanceTo(sim.now() + Millis(1));  // the FINs land
}

TEST_F(ConnAllocTest, WarmConnectAcceptCloseAllocatesNothing) {
  const int listen_fd = sys_.Listen();
  ASSERT_GE(listen_fd, 0);
  const std::shared_ptr<SimListener> listener = sys_.listener(listen_fd);
  for (int i = 0; i < kCycles; ++i) {
    ConnectAcceptClose(sim_, net_, sys_, listen_fd, listener);
  }
  DrainTimeWait();
  const uint64_t accepted_before = kernel_.stats().accepts;
  const uint64_t before = HeapAllocCount();
  for (int i = 0; i < kCycles; ++i) {
    ConnectAcceptClose(sim_, net_, sys_, listen_fd, listener);
  }
  const uint64_t allocs = HeapAllocCount() - before;
  EXPECT_EQ(kernel_.stats().accepts - accepted_before, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(allocs, 0u) << "a warm connect/accept/close cycle allocated";
}

// `kCycles` clients, one every 2 ms, each released when the slot it used
// comes round again, against a thttpd on /dev/poll.
class HttpRound {
 public:
  HttpRound(NetStack* net, std::shared_ptr<SimListener> listener)
      : context_{net, std::move(listener), BuildHttpRequest("/index.html"), Seconds(1), {}} {}

  // Schedules the round's launches from `start`; returns when they end.
  SimTime Schedule(Simulator& sim, SimTime start) {
    for (int i = 0; i < kCycles; ++i) {
      sim.ScheduleAt(start + Millis(2) * i, [this, i] {
        std::optional<ActiveClient>& slot = slots_[i % kSlots];
        slot.reset();
        records_[i % kSlots] = ConnRecord{};
        slot.emplace(&context_, &records_[i % kSlots]);
        slot->on_done = [this](ConnOutcome outcome) {
          ok_ += outcome == ConnOutcome::kOk ? 1 : 0;
        };
        slot->Start();
      });
    }
    return start + Millis(2) * kCycles + Millis(50);
  }

  int ok() const { return ok_; }

 private:
  static constexpr int kSlots = 8;
  ClientContext context_;
  std::optional<ActiveClient> slots_[kSlots];
  ConnRecord records_[kSlots];
  int ok_ = 0;
};

// Serves one warm-up round and, after the TIME-WAIT hold, one counted round;
// returns the counted round's allocations.
uint64_t CountedHttpRound(ConnAllocTest& world, HttpServerBase& server) {
  HttpRound round(&world.net_, world.sys_.listener(server.listener_fd()));
  server.Run(round.Schedule(world.sim_, world.sim_.now()));
  EXPECT_EQ(round.ok(), kCycles);
  world.DrainTimeWait();
  const uint64_t before = HeapAllocCount();
  server.Run(round.Schedule(world.sim_, world.sim_.now()));
  const uint64_t allocs = HeapAllocCount() - before;
  EXPECT_EQ(round.ok(), 2 * kCycles);
  return allocs;
}

// poll() sleeps on every socket's wait queue, so each wake-up snapshots a
// waiter; /dev/poll hangs a backmap link on every socket, so each status
// change snapshots a listener.
TEST_F(ConnAllocTest, HttpExchangeOverPollAllocatesOnlyItsTwoPayloads) {
  StaticContent content;
  content.AddDocument("/index.html", 6 * 1024);
  ThttpdPoll server(&sys_, &content);
  ASSERT_GE(server.Setup(), 0);
  const uint64_t allocs = CountedHttpRound(*this, server);
  EXPECT_LE(allocs, 2u * kCycles) << "more than the request and header payloads";
  EXPECT_GE(allocs, 2u * kCycles) << "the payload copies are counted, so the counter is live";
}

TEST_F(ConnAllocTest, HttpExchangeOverDevPollAllocatesOnlyItsTwoPayloads) {
  StaticContent content;
  content.AddDocument("/index.html", 6 * 1024);
  ThttpdDevPoll server(&sys_, &content);
  ASSERT_GE(server.Setup(), 0);
  ASSERT_GE(server.SetupEvents(), 0);
  const uint64_t allocs = CountedHttpRound(*this, server);
  EXPECT_LE(allocs, 2u * kCycles) << "more than the request and header payloads";
  EXPECT_GE(allocs, 2u * kCycles) << "the payload copies are counted, so the counter is live";
}

}  // namespace
}  // namespace scio
