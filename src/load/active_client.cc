#include "src/load/active_client.h"

#include <cstdint>

namespace scio {

ActiveClient::ActiveClient(ClientContext* context, ConnRecord* record)
    : context_(context), record_(record) {}

ActiveClient::~ActiveClient() { timeout_timer_.Cancel(); }

void ActiveClient::Start() {
  NetStack* net = context_->net;
  if (record_->attempts == 0) {
    record_->start = net->kernel()->now();
  }
  ++record_->attempts;
  socket_ = net->Connect(context_->listener);
  if (socket_ == nullptr) {
    Finish(ConnOutcome::kNoPorts);
    return;
  }
  socket_->on_connected = [this] { OnConnected(); };
  socket_->on_refused = [this] { Finish(ConnOutcome::kRefused); };
  socket_->on_data = [this](size_t) { OnData(); };
  socket_->on_eof = [this] { OnEof(); };
  timeout_timer_ = net->kernel()->sim().ScheduleAfter(context_->timeout, [this] {
    if (!done_) {
      Finish(ConnOutcome::kTimeout);
    }
  });
}

// sciolint: hotpath
void ActiveClient::OnConnected() {
  if (done_) {
    return;
  }
  socket_->Write(Chunk{context_->request, 0});
}

// sciolint: hotpath
void ActiveClient::OnData() {
  if (done_) {
    return;
  }
  std::string& data = context_->read_buffer;
  const ReadResult r = socket_->Read(SIZE_MAX, &data);
  const ResponseReader::State state = reader_.Feed(data, r.n - data.size());
  if (state == ResponseReader::State::kComplete) {
    Finish(reader_.status_code() == 200 ? ConnOutcome::kOk : ConnOutcome::kBadReply);
  } else if (state == ResponseReader::State::kError) {
    Finish(ConnOutcome::kBadReply);
  }
}

void ActiveClient::OnEof() {
  if (done_) {
    return;
  }
  // FIN with the response incomplete: the server (or its queue) dropped us.
  Finish(ConnOutcome::kReset);
}

void ActiveClient::Finish(ConnOutcome outcome) {
  if (done_) {
    return;
  }
  done_ = true;
  timeout_timer_.Cancel();
  record_->outcome = outcome;
  record_->end = context_->net->kernel()->now();
  if (socket_ != nullptr) {
    socket_->on_connected = nullptr;
    socket_->on_refused = nullptr;
    socket_->on_data = nullptr;
    socket_->on_eof = nullptr;
    socket_->Close();
  }
  if (on_done) {
    on_done(outcome);
  }
}

}  // namespace scio
