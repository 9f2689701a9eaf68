#include "src/net/listener.h"

#include <algorithm>

#include "src/kernel/sim_kernel.h"
#include "src/net/filter_chain.h"
#include "src/net/net_stack.h"
#include "src/net/transport_hook.h"

namespace scio {

void SimListener::OnFdClose() {
  closed_ = true;
  backlog_.clear();  // pending clients will time out, as on a real host
  half_open_.clear();
}

void SimListener::ReapHalfOpen() {
  const SimTime now = kernel()->now();
  size_t reaped = 0;
  while (!half_open_.empty() && half_open_.front().expires <= now) {
    half_open_.pop_front();
    ++reaped;
  }
  if (reaped > 0) {
    kernel()->stats().net_half_open_reaped += reaped;
    // Timer-context teardown of the stale connection-request blocks.
    kernel()->ChargeDebt(
        kernel()->cost().synq_reap_per_entry * static_cast<SimDuration>(reaped),
        ChargeCat::kConnMgmt);
  }
}

bool SimListener::IngressSynAllowed(int src_port) {
  // SYN processing happens in interrupt context on the server.
  ++kernel()->stats().packets_delivered;
  ++kernel()->stats().interrupts;
  kernel()->ChargeDebt(kernel()->cost().interrupt_per_packet, ChargeCat::kInterrupt);
  ReapHalfOpen();
  IngressFilterChain* filter = net_->filter();
  if (filter != nullptr &&
      filter->EvalConnect(src_port) == FilterVerdict::kDrop) {
    // iptables-style DROP: no RST, the sender just never hears back.
    return false;
  }
  return true;
}

// sciolint: hotpath
void SimListener::HandleSyn(const std::shared_ptr<SimSocket>& client) {
  if (!IngressSynAllowed(client->port())) {
    return;
  }

  if (closed_ || backlog_.size() >= static_cast<size_t>(backlog_max_)) {
    ++kernel()->stats().connections_refused;
    net_->LinkFor(/*toward_server=*/false)
        .Transmit(kControlPacketBytes, [client] { client->HandleRefused(); });
    return;
  }

  // A benign client ACKs within one RTT — instantly here — so it holds a
  // half-open slot for zero time. But when the queue is already saturated by
  // never-ACKed SYNs, this SYN has nowhere to wait: Linux silently drops it
  // (the client times out and retries) unless syncookies take over, encoding
  // the connection state into the sequence number at per-SYN CPU cost.
  if (half_open_.size() >= static_cast<size_t>(syn_config_.max_half_open)) {
    if (!syn_config_.syncookies) {
      ++kernel()->stats().net_syn_backlog_overflows;
      return;
    }
    ++kernel()->stats().net_syncookies_sent;
    kernel()->ChargeDebt(kernel()->cost().syncookie_cost, ChargeCat::kSynCookie);
  }

  std::shared_ptr<SimSocket> server = net_->MakeSocket(/*server_side=*/true);
  server->set_remote_port(client->port());
  if (TcpTransportHook* transport = net_->transport(); transport != nullptr) {
    transport->Attach(server.get());
  }
  server->WirePeer(client);
  client->WirePeer(server);
  backlog_.push_back(std::move(server));
  // Herd metric: every Process::Wake() triggered by this SYN's notification
  // fan-out (poll sleepers, devpoll owners via hint backmaps, epoll and
  // kqueue sleepers via their registrations, RT-signal deliveries) is a
  // listener wakeup. wakeups/accept ≈ 1 is the wake-one ideal; N sleeping
  // workers woken per SYN is the 2.2 thundering herd.
  const uint64_t wakes_before = kernel()->TotalProcessWakes();
  NotifyStatus(kPollIn);
  kernel()->stats().wait_listener_syn_wakeups +=
      kernel()->TotalProcessWakes() - wakes_before;

  net_->LinkFor(/*toward_server=*/false)
      .Transmit(kControlPacketBytes, [client] { client->HandleConnected(); });
}

void SimListener::HandleRawSyn(int src_port) {
  ++kernel()->stats().net_raw_syns;
  if (!IngressSynAllowed(src_port)) {
    return;
  }
  if (closed_) {
    return;
  }
  if (syn_config_.syncookies) {
    // Stateless SYN-ACK into the void: CPU is spent, no state is held, and
    // the ACK that would complete the cookie handshake never arrives.
    ++kernel()->stats().net_syncookies_sent;
    kernel()->ChargeDebt(kernel()->cost().syncookie_cost, ChargeCat::kSynCookie);
    return;
  }
  if (half_open_.size() >= static_cast<size_t>(syn_config_.max_half_open)) {
    ++kernel()->stats().net_syn_backlog_overflows;
    return;
  }
  half_open_.push_back({src_port, kernel()->now() + syn_config_.syn_timeout});
  syn_backlog_peak_ = std::max(syn_backlog_peak_, half_open_.size());
}

std::shared_ptr<SimSocket> SimListener::Accept() {
  if (backlog_.empty()) {
    return nullptr;
  }
  std::shared_ptr<SimSocket> conn = std::move(backlog_.front());
  backlog_.pop_front();
  return conn;
}

}  // namespace scio
