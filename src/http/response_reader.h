// Client-side HTTP/1.0 response tracking.
//
// The benchmark client needs to know when a response is complete (to stamp
// the connection time) and whether it was well-formed. Headers arrive as
// real bytes; bodies may be partly synthetic, so the reader counts body
// bytes rather than inspecting them.

#ifndef SRC_HTTP_RESPONSE_READER_H_
#define SRC_HTTP_RESPONSE_READER_H_

#include <string>
#include <string_view>

namespace scio {

class ResponseReader {
 public:
  enum class State {
    kHeader,    // accumulating header bytes
    kBody,      // counting body bytes
    kComplete,  // Content-Length bytes received
    kError,     // malformed response
  };

  // `data` is the real prefix of this fragment; `synthetic` counts the rest.
  State Feed(std::string_view data, size_t synthetic);

  State state() const { return state_; }
  int status_code() const { return status_code_; }
  size_t content_length() const { return content_length_; }
  size_t body_received() const { return body_received_; }

 private:
  State ParseHeader(std::string_view header);

  State state_ = State::kHeader;
  std::string header_;  // a header split across fragments, gathered
  size_t pending_synthetic_ = 0;  // synthetic bytes seen while still in header
  int status_code_ = 0;
  size_t content_length_ = 0;
  size_t body_received_ = 0;
};

}  // namespace scio

#endif  // SRC_HTTP_RESPONSE_READER_H_
