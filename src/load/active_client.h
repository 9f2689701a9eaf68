// One httperf connection: connect, send GET, await the full response.
//
// Entirely event-driven on the simulated client host (whose CPU is free —
// the paper's 4-way Xeon client is never the bottleneck). The outcome lands
// in the ConnRecord owned by the generator.

#ifndef SRC_LOAD_ACTIVE_CLIENT_H_
#define SRC_LOAD_ACTIVE_CLIENT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/http/response_reader.h"
#include "src/load/workload.h"
#include "src/net/listener.h"
#include "src/net/net_stack.h"
#include "src/net/socket.h"

namespace scio {

// What every client of one generator shares, made once per generator.
struct ClientContext {
  NetStack* net = nullptr;
  std::shared_ptr<SimListener> listener;
  std::string request;      // the GET every client sends
  SimDuration timeout = 0;  // per connection, from the first SYN
  std::string read_buffer;  // every client's reads land here, one at a time
};

// A client is made parked and runs one connection per Start(), so a
// generator can keep its clients in slots and reuse a finished one.
class ActiveClient {
 public:
  ActiveClient() = default;
  ActiveClient(const ActiveClient&) = delete;
  ActiveClient& operator=(const ActiveClient&) = delete;
  ~ActiveClient();

  // Initiate a connection for `record`; `context` must outlive the client,
  // which must be fresh or parked (holds_socket() false). Fills the record
  // immediately on kNoPorts. Counts one attempt; the record's start time is
  // set on the first attempt only, so ConnTime spans retries.
  void Start(ClientContext* context, ConnRecord* record);

  ConnRecord* record() const { return record_; }

  // A finished client keeps its closed socket only while the transport
  // plane models it (see transport_plane.h): the socket ACKs what still
  // arrives until the plane releases its block. Finish frees a socket the
  // plane does not model (always, without a plane).
  bool holds_socket() const { return socket_ != nullptr; }

  // On a finished client: frees the socket if the plane has released its
  // block since. Returns !holds_socket().
  bool DropReleasedSocket();

  // Invoked once, after the outcome is recorded and the socket dropped or
  // kept; the generator uses it to park the client and to decide whether
  // to retry this record on a fresh connection.
  std::function<void(ConnOutcome)> on_done;

 private:
  void Finish(ConnOutcome outcome);
  void OnConnected();
  void OnData();
  void OnEof();

  ClientContext* context_ = nullptr;
  ConnRecord* record_ = nullptr;

  std::shared_ptr<SimSocket> socket_;
  ResponseReader reader_;
  EventHandle timeout_timer_;
  bool done_ = false;
};

}  // namespace scio

#endif  // SRC_LOAD_ACTIVE_CLIENT_H_
