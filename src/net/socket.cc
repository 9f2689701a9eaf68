#include "src/net/socket.h"

#include <algorithm>
#include <utility>

#include "src/kernel/sim_kernel.h"
#include "src/net/filter_chain.h"
#include "src/net/net_stack.h"
#include "src/net/transport_hook.h"

namespace scio {

SimSocket::SimSocket(SimKernel* kernel, NetStack* net, bool server_side)
    : File(kernel, FileKind::kSocket),
      net_(net),
      server_side_(server_side),
      state_(server_side ? State::kEstablished : State::kConnecting),
      sndbuf_(net->config().sndbuf) {}

SimSocket::~SimSocket() {
  if (transport_ != nullptr) {
    transport_->OnSocketDestroyed(this);
  }
  // Sockets dropped without Close (in-flight delivery teardown) still hold
  // buffered bytes; release them from the ledger here.
  if (recv_available_ > 0) {
    kernel()->mem().Sub(MemSys::kBuffers, recv_available_);
  }
  if (!server_side_ && port_ >= 0 && !port_released_) {
    net_->ports().ReleaseImmediate(port_);
  }
}

PollEvents SimSocket::PollMask() const {
  PollEvents mask = 0;
  if (recv_available_ > 0 || eof_received_) {
    mask |= kPollIn;
  }
  if (state_ == State::kEstablished && in_flight_ < sndbuf_) {
    mask |= kPollOut;
  }
  if (state_ == State::kPeerClosed) {
    mask |= kPollHup;
  }
  if (state_ == State::kRefused) {
    mask |= kPollErr;
  }
  return mask;
}

// sciolint: hotpath
size_t SimSocket::Write(Chunk&& chunk) {
  if (state_ != State::kEstablished && state_ != State::kPeerClosed) {
    return 0;
  }
  const size_t budget = sndbuf_ > in_flight_ ? sndbuf_ - in_flight_ : 0;
  const size_t accepted = std::min(budget, chunk.size());
  if (accepted == 0) {
    return 0;
  }
  Chunk out;
  if (accepted == chunk.size()) {
    out = std::move(chunk);
    chunk.data.clear();
    chunk.synthetic = 0;
  } else {
    const size_t from_data = std::min(accepted, chunk.data.size());
    out.data.assign(chunk.data, 0, from_data);
    chunk.data.erase(0, from_data);
    out.synthetic = accepted - from_data;
    chunk.synthetic -= out.synthetic;
  }
  in_flight_ += accepted;

  if (transport_ != nullptr) {
    // The plane segments and (re)transmits; in_flight_ drains through
    // TransportAcked when the peer's cumulative ACK covers the bytes.
    transport_->Send(this, std::move(out));
    return accepted;
  }

  std::weak_ptr<SimSocket> self = weak_from_this();
  std::weak_ptr<SimSocket> peer = peer_;
  net_->LinkFor(/*toward_server=*/!server_side_)
      .Transmit(accepted, [self, peer, out = std::move(out), accepted]() mutable {
        if (auto s = self.lock()) {
          s->OnBytesAcked(accepted);
        }
        if (auto p = peer.lock()) {
          p->DeliverChunk(std::move(out));
        }
      });
  return accepted;
}

void SimSocket::OnBytesAcked(size_t n) {
  const bool was_blocked = in_flight_ >= sndbuf_;
  in_flight_ -= std::min(in_flight_, n);
  if (was_blocked && state_ == State::kEstablished && in_flight_ < sndbuf_) {
    NotifyStatus(kPollOut);
  }
}

// sciolint: hotpath
void SimSocket::DeliverChunk(Chunk&& chunk) {
  if (state_ == State::kClosed || state_ == State::kRefused) {
    return;  // arrived after close; the real stack would RST
  }
  if (server_side_) {
    ++kernel()->stats().packets_delivered;
    ++kernel()->stats().interrupts;
    kernel()->ChargeDebt(kernel()->cost().interrupt_per_packet, ChargeCat::kInterrupt);
    // Packet-hook ingress filter: runs after the interrupt is taken (the
    // packet already cost its interrupt) but before any socket state changes.
    // A DROP discards the bytes in interrupt context; the sender's in-flight
    // accounting already ran at transmit completion, so nothing else moves.
    IngressFilterChain* filter = net_->filter();
    if (filter != nullptr &&
        filter->EvalPacket(remote_port_) == FilterVerdict::kDrop) {
      return;
    }
  }
  const size_t n = chunk.size();
  recv_available_ += n;
  kernel()->mem().Add(MemSys::kBuffers, n);
  recv_queue_.push_back(std::move(chunk));
  NotifyStatus(kPollIn);
  // Copy before invoking: the callback may Close() and drop the last strong
  // reference to this socket, destroying the member std::function mid-call.
  if (auto cb = on_data) {
    cb(n);
  }
}

// sciolint: hotpath
void SimSocket::AcceptTransportBytes(Chunk&& chunk) {
  if (state_ == State::kClosed || state_ == State::kRefused) {
    return;  // arrived after close; the real stack would RST
  }
  const size_t n = chunk.size();
  recv_available_ += n;
  kernel()->mem().Add(MemSys::kBuffers, n);
  recv_queue_.push_back(std::move(chunk));
  NotifyStatus(kPollIn);
  // Copy before invoking: the callback may Close() and drop the last strong
  // reference to this socket, destroying the member std::function mid-call.
  if (auto cb = on_data) {
    cb(n);
  }
}

void SimSocket::DeliverEof() {
  if (state_ == State::kClosed || state_ == State::kRefused) {
    return;
  }
  eof_received_ = true;
  if (state_ == State::kEstablished || state_ == State::kConnecting) {
    state_ = State::kPeerClosed;
  }
  if (server_side_) {
    ++kernel()->stats().packets_delivered;
    ++kernel()->stats().interrupts;
    kernel()->ChargeDebt(kernel()->cost().interrupt_per_packet, ChargeCat::kInterrupt);
  }
  NotifyStatus(kPollIn | kPollHup);
  if (auto cb = on_eof) {
    cb();
  }
}

// sciolint: hotpath
ReadResult SimSocket::Read(size_t max_bytes, std::string* data) {
  ReadResult result;
  if (data != nullptr) {
    data->clear();
  }
  while (result.n < max_bytes && !recv_queue_.empty()) {
    Chunk& front = recv_queue_.front();
    size_t want = max_bytes - result.n;
    // Real bytes first, then synthetic padding.
    const size_t from_data = std::min(want, front.data.size());
    if (data != nullptr) {
      data->append(front.data, 0, from_data);
    }
    front.data.erase(0, from_data);
    want -= from_data;
    const size_t from_synth = std::min(want, front.synthetic);
    front.synthetic -= from_synth;
    result.n += from_data + from_synth;
    if (front.size() == 0) {
      recv_queue_.pop_front();
    }
  }
  recv_available_ -= result.n;
  kernel()->mem().Sub(MemSys::kBuffers, result.n);
  if (result.n == 0 && eof_received_) {
    result.eof = true;
  }
  return result;
}

void SimSocket::HandleConnected() {
  if (state_ == State::kConnecting) {
    state_ = State::kEstablished;
    if (auto cb = on_connected) {
      cb();
    }
  }
}

void SimSocket::HandleRefused() {
  if (state_ != State::kConnecting) {
    return;
  }
  state_ = State::kRefused;
  if (!server_side_ && port_ >= 0 && !port_released_) {
    // No TCB was established: the port is immediately reusable.
    net_->ports().ReleaseImmediate(port_);
    port_released_ = true;
  }
  if (auto cb = on_refused) {
    cb();
  }
}

void SimSocket::CloseInternal() {
  if (state_ == State::kClosed || state_ == State::kRefused) {
    return;
  }
  const State prev = state_;
  state_ = State::kClosed;
  recv_queue_.clear();
  kernel()->mem().Sub(MemSys::kBuffers, recv_available_);
  recv_available_ = 0;

  if (prev == State::kEstablished || prev == State::kPeerClosed) {
    if (transport_ != nullptr) {
      // The plane sequences the FIN behind any unacked data and keeps the
      // block retransmitting until it drains, even if this socket dies.
      transport_->OnSocketClose(this);
    } else {
      // Send our FIN.
      std::weak_ptr<SimSocket> peer = peer_;
      net_->LinkFor(/*toward_server=*/!server_side_)
          .Transmit(kControlPacketBytes, [peer] {
            if (auto p = peer.lock()) {
              p->DeliverEof();
            }
          });
    }
  }
  if (!server_side_ && port_ >= 0 && !port_released_) {
    if (prev == State::kEstablished || prev == State::kPeerClosed) {
      net_->ports().ReleaseTimeWait(port_, kernel()->now());
    } else {
      net_->ports().ReleaseImmediate(port_);
    }
    port_released_ = true;
  }
}

}  // namespace scio
