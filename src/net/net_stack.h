// NetStack: the simulated network between the client machine and the server.
//
// Mirrors the paper's testbed (§5): one client host and one server host on a
// 100 Mbit/s switch. Owns the two link directions, the client's ephemeral
// port space, and connection establishment.

#ifndef SRC_NET_NET_STACK_H_
#define SRC_NET_NET_STACK_H_

#include <memory>

#include "src/kernel/sim_kernel.h"
#include "src/net/link.h"
#include "src/net/port_allocator.h"
#include "src/net/socket_pool.h"

namespace scio {

class IngressFilterChain;
class SimListener;
class SimSocket;
class TcpTransportHook;

inline constexpr size_t kControlPacketBytes = 40;  // SYN / SYN-ACK / FIN on the wire
inline constexpr int kFirstClientPort = 1024;

struct NetConfig {
  double bandwidth_bps = 100e6;          // 100 Mbit/s Ethernet
  SimDuration latency = Micros(150);     // one-way propagation + switch
  size_t sndbuf = 64 * 1024;             // per-socket send buffer
  int client_port_count = 59000;         // ~60000 sockets at once (§5)
};

class NetStack {
 public:
  explicit NetStack(SimKernel* kernel, NetConfig config = NetConfig{})
      : kernel_(kernel),
        config_(config),
        to_server_(&kernel->sim(), config.bandwidth_bps, config.latency),
        to_client_(&kernel->sim(), config.bandwidth_bps, config.latency),
        ports_(kFirstClientPort, config.client_port_count),
        socket_alloc_(new SocketPool) {}
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  SimKernel* kernel() { return kernel_; }
  const NetConfig& config() const { return config_; }
  PortAllocator& ports() { return ports_; }

  // Subject both link directions to a fault schedule (null to detach).
  void InstallFaultPlane(FaultPlane* plane) {
    to_server_.InstallFaultPlane(plane, /*toward_server=*/true);
    to_client_.InstallFaultPlane(plane, /*toward_server=*/false);
  }

  // Attach the server's ingress filter chain (borrowed; null to detach).
  // SimListener and server-side SimSockets consult it on SYN and data-packet
  // arrival; with no chain attached the ingress path is unchanged.
  void set_filter(IngressFilterChain* filter) { filter_ = filter; }
  IngressFilterChain* filter() const { return filter_; }

  // Attach the opt-in transport plane (borrowed; null to detach). With a
  // plane attached, every socket created from here on gets a per-connection
  // TCP block at SYN time; without one the legacy reliable-pipe model runs
  // and nothing changes.
  void set_transport(TcpTransportHook* transport) { transport_ = transport; }
  TcpTransportHook* transport() const { return transport_; }

  // Direction selector: traffic *from* the client flows toward the server.
  Link& LinkFor(bool toward_server) { return toward_server ? to_server_ : to_client_; }

  // A new, unwired socket from this stack's pool (see socket_pool.h).
  std::shared_ptr<SimSocket> MakeSocket(bool server_side);
  // Sockets of this stack whose pool block is in use: each lives until its
  // last strong or weak reference goes.
  size_t live_sockets() const { return socket_alloc_.pool()->live_blocks(); }

  // Client-side connect: allocates an ephemeral port and launches the SYN.
  // Returns the (client-side) socket, or nullptr when the port space is
  // exhausted — the client-resource error the paper works around in §5.
  std::shared_ptr<SimSocket> Connect(const std::shared_ptr<SimListener>& listener);

  // Spoofed SYN: a 40-byte control packet from `src_port` (any int — spoofed
  // sources are not drawn from the ephemeral allocator) that will never be
  // ACKed. Consumes link bandwidth and server interrupt/SYN-queue resources;
  // no client-side socket exists. The campaign's SYN floods are made of these.
  void RawSyn(const std::shared_ptr<SimListener>& listener, int src_port);

 private:
  SimKernel* kernel_;
  NetConfig config_;
  Link to_server_;
  Link to_client_;
  PortAllocator ports_;
  SocketAllocator<SimSocket> socket_alloc_;
  IngressFilterChain* filter_ = nullptr;
  TcpTransportHook* transport_ = nullptr;
};

}  // namespace scio

#endif  // SRC_NET_NET_STACK_H_
