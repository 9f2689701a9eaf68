// Tests for the network substrate: links, sockets, listener backlog, and the
// ephemeral-port/TIME-WAIT machinery of §5.

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/net/port_allocator.h"
#include "tests/sim_world.h"

namespace scio {
namespace {

// --- Link ----------------------------------------------------------------------

TEST(LinkTest, SerializationPlusLatency) {
  Simulator sim;
  Link link(&sim, /*bandwidth_bps=*/8e6, /*latency=*/Millis(1));
  SimTime delivered = -1;
  link.Transmit(1000, [&] { delivered = sim.now(); });  // 1000 B at 1 MB/s = 1 ms
  sim.RunAll();
  EXPECT_EQ(delivered, Millis(2)) << "1ms serialization + 1ms propagation";
}

TEST(LinkTest, BackToBackTransmissionsQueue) {
  Simulator sim;
  Link link(&sim, 8e6, Millis(1));
  std::vector<SimTime> arrivals;
  link.Transmit(1000, [&] { arrivals.push_back(sim.now()); });
  link.Transmit(1000, [&] { arrivals.push_back(sim.now()); });
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Millis(2));
  EXPECT_EQ(arrivals[1], Millis(3)) << "second frame waits for the first to clock out";
  EXPECT_EQ(link.bytes_carried(), 2000u);
}

TEST(LinkTest, IdleGapResetsQueue) {
  Simulator sim;
  Link link(&sim, 8e6, 0);
  SimTime first = -1;
  link.Transmit(1000, [&] { first = sim.now(); });
  sim.RunAll();
  sim.AdvanceTo(Millis(10));
  SimTime second = -1;
  link.Transmit(1000, [&] { second = sim.now(); });
  sim.RunAll();
  EXPECT_EQ(first, Millis(1));
  EXPECT_EQ(second, Millis(11)) << "no residual queueing after idle";
}

// --- PortAllocator ---------------------------------------------------------------

TEST(PortAllocatorTest, ExhaustionAndTimeWaitReuse) {
  PortAllocator ports(1000, 2);
  const int a = ports.Acquire(0);
  const int b = ports.Acquire(0);
  EXPECT_GE(a, 1000);
  EXPECT_GE(b, 1000);
  EXPECT_EQ(ports.Acquire(0), -1) << "all ports busy";
  ports.ReleaseTimeWait(a, 0);
  EXPECT_EQ(ports.Acquire(kDefaultTimeWait - 1), -1) << "port still in TIME-WAIT";
  EXPECT_EQ(ports.in_time_wait(kDefaultTimeWait - 1), 1);
  EXPECT_EQ(ports.Acquire(kDefaultTimeWait), a) << "reusable after the hold time";
}

TEST(PortAllocatorTest, ImmediateReleaseSkipsTimeWait) {
  PortAllocator ports(1000, 1);
  const int a = ports.Acquire(0);
  ports.ReleaseImmediate(a);
  EXPECT_EQ(ports.Acquire(1), a);
}

class PortChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(PortChurnTest, SteadyChurnNeverExceedsCapacity) {
  const int capacity = GetParam();
  PortAllocator ports(2000, capacity);
  SimTime now = 0;
  std::vector<int> open;
  int acquired = 0;
  for (int step = 0; step < 1000; ++step) {
    now += kDefaultTimeWait / 10;  // a released port comes back 10 steps later
    if (const int port = ports.Acquire(now); port >= 0) {
      open.push_back(port);
      ++acquired;
    }
    if (open.size() > 3) {
      ports.ReleaseTimeWait(open.front(), now);
      open.erase(open.begin());
    }
    ASSERT_LE(ports.in_use(), capacity);
  }
  EXPECT_GT(acquired, 0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PortChurnTest, ::testing::Values(4, 8, 64));

// --- connection establishment ------------------------------------------------------

TEST_F(SimWorldTest, ConnectAcceptRoundTrip) {
  auto [client, fd] = EstablishedPair();
  EXPECT_EQ(client->state(), SimSocket::State::kEstablished);
  auto server_sock = sys_.socket(fd);
  ASSERT_NE(server_sock, nullptr);
  EXPECT_EQ(server_sock->state(), SimSocket::State::kEstablished);
  EXPECT_EQ(kernel_.stats().accepts, 1u);
}

TEST_F(SimWorldTest, BacklogOverflowRefuses) {
  // Fill the backlog (default 128) without accepting.
  std::vector<std::shared_ptr<SimSocket>> clients;
  int refused = 0;
  for (int i = 0; i < 150; ++i) {
    auto client = net_.Connect(listener_);
    client->on_refused = [&] { ++refused; };
    clients.push_back(client);
  }
  sim_.RunAll();
  EXPECT_EQ(listener_->backlog_depth(), 128u);
  EXPECT_EQ(refused, 150 - 128);
  EXPECT_EQ(kernel_.stats().connections_refused, static_cast<uint64_t>(refused));
}

TEST_F(SimWorldTest, AcceptOnEmptyBacklogIsEagain) {
  EXPECT_EQ(sys_.Accept(listen_fd_), -1);
}

TEST_F(SimWorldTest, AcceptOnBadFdIsEbadf) { EXPECT_EQ(sys_.Accept(99), -2); }

TEST_F(SimWorldTest, AcceptEmfileDropsConnection) {
  // Exhaust the fd table.
  std::vector<int> fds;
  while (true) {
    const int fd = sys_.Listen(1);
    if (fd < 0) {
      break;
    }
    fds.push_back(fd);
  }
  auto client = ClientConnect();
  EXPECT_EQ(sys_.Accept(listen_fd_), -3);
}

// --- data transfer --------------------------------------------------------------

TEST_F(SimWorldTest, BytesFlowBothWays) {
  auto [client, fd] = EstablishedPair();
  client->Write(Chunk{"hello", 0});
  RunFor(Millis(5));
  std::string data;
  ReadResult r = sys_.Read(fd, 100, &data);
  EXPECT_EQ(r.n, 5u);
  EXPECT_EQ(data, "hello");

  ASSERT_EQ(sys_.Write(fd, Chunk{"world!", 0}), 6);
  size_t got = 0;
  client->on_data = [&](size_t n) { got += n; };
  RunFor(Millis(5));
  EXPECT_EQ(got, 6u);
  EXPECT_EQ(client->Read(100, &data).n, 6u);
  EXPECT_EQ(data, "world!") << "the read replaces the buffer's contents";
}

TEST_F(SimWorldTest, SyntheticBytesCountButCarryNoData) {
  auto [client, fd] = EstablishedPair();
  ASSERT_EQ(sys_.Write(fd, Chunk{"hdr:", 1000}), 1004);
  RunFor(Millis(10));
  std::string data;
  ReadResult r = client->Read(SIZE_MAX, &data);
  EXPECT_EQ(r.n, 1004u);
  EXPECT_EQ(data, "hdr:");
}

TEST_F(SimWorldTest, PartialReadPreservesOrder) {
  auto [client, fd] = EstablishedPair();
  client->Write(Chunk{"abcdef", 0});
  RunFor(Millis(5));
  std::string data;
  EXPECT_EQ(sys_.Read(fd, 2, &data).n, 2u);
  EXPECT_EQ(data, "ab");
  EXPECT_EQ(sys_.Read(fd, 2, &data).n, 2u);
  EXPECT_EQ(data, "cd");
  EXPECT_EQ(sys_.Read(fd, 10, &data).n, 2u);
  EXPECT_EQ(data, "ef");
  EXPECT_EQ(sys_.Read(fd, 10).n, 0u) << "drained: EAGAIN";
}

TEST_F(SimWorldTest, SendBufferLimitsWriteAndPollOutReturns) {
  auto [client, fd] = EstablishedPair();
  auto server_sock = sys_.socket(fd);
  server_sock->set_sndbuf(1000);
  const long first = sys_.Write(fd, Chunk{"", 5000});
  EXPECT_EQ(first, 1000) << "write truncated to free send-buffer space";
  EXPECT_EQ(server_sock->PollMask() & kPollOut, 0) << "buffer full: not writable";
  const long second = sys_.Write(fd, Chunk{"", 100});
  EXPECT_EQ(second, 0) << "would block";
  RunFor(Millis(10));  // in-flight data delivered (acked)
  EXPECT_NE(server_sock->PollMask() & kPollOut, 0) << "writable again";
  EXPECT_EQ(sys_.Write(fd, Chunk{"", 100}), 100);
}

TEST_F(SimWorldTest, EofAfterPeerClose) {
  auto [client, fd] = EstablishedPair();
  client->Write(Chunk{"bye", 0});
  client->Close();
  RunFor(Millis(5));
  auto server_sock = sys_.socket(fd);
  EXPECT_NE(server_sock->PollMask() & kPollIn, 0);
  std::string data;
  ReadResult r = sys_.Read(fd, 100, &data);
  EXPECT_EQ(data, "bye") << "data before FIN drains first";
  r = sys_.Read(fd, 100);
  EXPECT_TRUE(r.eof);
}

TEST_F(SimWorldTest, ServerCloseReachesClient) {
  auto [client, fd] = EstablishedPair();
  bool eof = false;
  client->on_eof = [&] { eof = true; };
  ASSERT_EQ(sys_.Close(fd), 0);
  RunFor(Millis(5));
  EXPECT_TRUE(eof);
  EXPECT_EQ(client->state(), SimSocket::State::kPeerClosed);
}

TEST_F(SimWorldTest, WriteAfterCloseFails) {
  auto [client, fd] = EstablishedPair();
  ASSERT_EQ(sys_.Close(fd), 0);
  EXPECT_EQ(sys_.Write(fd, Chunk{"x", 0}), -1) << "EBADF";
}

TEST_F(SimWorldTest, ClientPortEntersTimeWaitOnClose) {
  auto [client, fd] = EstablishedPair();
  EXPECT_EQ(net_.ports().in_use(), 1);
  client->Close();
  RunFor(Millis(5));
  EXPECT_EQ(net_.ports().in_use(), 0);
  EXPECT_EQ(net_.ports().in_time_wait(kernel_.now()), 1);
  ASSERT_EQ(sys_.Close(fd), 0);
}

TEST_F(SimWorldTest, RefusedConnectionReleasesPortImmediately) {
  // Close the listener: every SYN is refused.
  ASSERT_EQ(sys_.Close(listen_fd_), 0);
  auto client = net_.Connect(listener_);
  sim_.RunAll();
  EXPECT_EQ(client->state(), SimSocket::State::kRefused);
  EXPECT_EQ(net_.ports().in_use(), 0);
  EXPECT_EQ(net_.ports().in_time_wait(kernel_.now()), 0);
}

TEST_F(SimWorldTest, PacketsChargeInterruptDebtOnServerSideOnly) {
  auto [client, fd] = EstablishedPair();
  const uint64_t before = kernel_.stats().interrupts;
  client->Write(Chunk{"ping", 0});
  RunFor(Millis(5));
  EXPECT_EQ(kernel_.stats().interrupts, before + 1);
  const uint64_t after_client_rx = kernel_.stats().interrupts;
  ASSERT_EQ(sys_.Write(fd, Chunk{"pong", 0}), 4);
  RunFor(Millis(5));
  EXPECT_EQ(kernel_.stats().interrupts, after_client_rx)
      << "client-side delivery is free (client machine not modelled)";
}

TEST_F(SimWorldTest, DataBeforeAcceptIsReadableAfterAccept) {
  auto client = ClientConnect();
  // Client learns of establishment and sends before the server accepts.
  sim_.StepUntil([&] { return client->state() == SimSocket::State::kEstablished; },
                 sim_.now() + Seconds(1));
  client->Write(Chunk{"early", 0});
  RunFor(Millis(5));
  const int fd = sys_.Accept(listen_fd_);
  ASSERT_GE(fd, 0);
  std::string data;
  EXPECT_EQ(sys_.Read(fd, 100, &data).n, 5u);
  EXPECT_EQ(data, "early");
}

}  // namespace
}  // namespace scio
