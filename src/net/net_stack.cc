#include "src/net/net_stack.h"

#include "src/net/listener.h"
#include "src/net/reuseport.h"
#include "src/net/socket.h"
#include "src/net/transport_hook.h"

namespace scio {

std::shared_ptr<SimSocket> NetStack::MakeSocket(bool server_side) {
  return std::allocate_shared<SimSocket>(socket_alloc_, kernel_, this, server_side);
}

// sciolint: hotpath
std::shared_ptr<SimSocket> NetStack::Connect(const std::shared_ptr<SimListener>& listener) {
  const int port = ports_.Acquire(kernel_->now());
  if (port < 0) {
    return nullptr;
  }
  std::shared_ptr<SimSocket> client = MakeSocket(/*server_side=*/false);
  client->set_port(port);
  if (transport_ != nullptr) {
    transport_->Attach(client.get());
  }
  // SO_REUSEPORT: if the listener shares its port with a shard group, the
  // flow hash — not the caller — picks which member receives the SYN.
  const std::shared_ptr<SimListener>& target =
      listener->reuseport_group() != nullptr ? listener->reuseport_group()->Route(port)
                                             : listener;
  to_server_.Transmit(kControlPacketBytes, [target, client] { target->HandleSyn(client); });
  return client;
}

void NetStack::RawSyn(const std::shared_ptr<SimListener>& listener, int src_port) {
  // Spoofed SYNs ride the same flow hash as real ones: a sharded group sees
  // the flood spread across its members exactly as SO_REUSEPORT would.
  const std::shared_ptr<SimListener>& target =
      listener->reuseport_group() != nullptr ? listener->reuseport_group()->Route(src_port)
                                             : listener;
  to_server_.Transmit(kControlPacketBytes, [target, src_port] { target->HandleRawSyn(src_port); });
}

}  // namespace scio
