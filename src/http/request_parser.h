// Incremental HTTP/1.0 GET request parser.
//
// Connections deliver requests in arbitrary fragments (the inactive-client
// workload trickles a request one byte at a time, §5), so the parser keeps
// state across Feed() calls. Only the request line and the end-of-headers
// blank line matter to a static-content server; header fields are retained
// unparsed.

#ifndef SRC_HTTP_REQUEST_PARSER_H_
#define SRC_HTTP_REQUEST_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace scio {

class RequestParser {
 public:
  enum class State {
    kIncomplete,  // need more bytes
    kComplete,    // full request parsed; method/path/version valid
    kError,       // malformed request
  };

  // Consume the next fragment. Returns the resulting state; once kComplete
  // or kError is reached further Feed() calls are ignored.
  State Feed(std::string_view fragment);

  State state() const { return state_; }
  // Views into the internal buffer, valid until Reset(). Stored as
  // offset+length rather than owned strings: at a million parked parsers the
  // three std::strings were ~96 bytes per connection of pure duplication.
  std::string_view method() const { return View(0, method_len_); }
  std::string_view path() const { return View(path_off_, path_len_); }
  std::string_view version() const { return View(version_off_, version_len_); }

  // Reset for the next request (keep-alive style reuse).
  void Reset();

 private:
  State Parse();
  std::string_view View(uint32_t off, uint32_t len) const {
    return std::string_view(buffer_).substr(off, len);
  }

  State state_ = State::kIncomplete;
  uint32_t method_len_ = 0;
  uint32_t path_off_ = 0;
  uint32_t path_len_ = 0;
  uint32_t version_off_ = 0;
  uint32_t version_len_ = 0;
  std::string buffer_;
};

}  // namespace scio

#endif  // SRC_HTTP_REQUEST_PARSER_H_
