#include "src/http/response_reader.h"

#include <limits>

namespace scio {

namespace {

// strtoll() over a view: leading whitespace, an optional sign, then digits,
// saturating at the long long range. The view is not NUL-terminated, so the
// C parsers cannot run on it.
long long ParseLeadingInt(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || (s[i] >= '\t' && s[i] <= '\r'))) {
    ++i;
  }
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    negative = s[i] == '-';
    ++i;
  }
  constexpr long long kMax = std::numeric_limits<long long>::max();
  long long value = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    const int digit = s[i] - '0';
    if (value > (kMax - digit) / 10) {
      return negative ? std::numeric_limits<long long>::min() : kMax;
    }
    value = value * 10 + digit;
  }
  return negative ? -value : value;
}

}  // namespace

// sciolint: hotpath
ResponseReader::State ResponseReader::Feed(std::string_view data, size_t synthetic) {
  if (state_ == State::kComplete || state_ == State::kError) {
    return state_;
  }
  if (state_ == State::kHeader) {
    // A header that arrives whole in one fragment is parsed where it lies;
    // only a header split across fragments is gathered in header_.
    std::string_view header = data;
    if (!header_.empty() || data.find("\r\n\r\n") == std::string_view::npos) {
      header_.append(data);
      header = header_;
    }
    pending_synthetic_ += synthetic;
    if (ParseHeader(header) == State::kHeader) {
      if (pending_synthetic_ > 0) {
        // Synthetic bytes can only be body; a header that hasn't terminated
        // before synthetic data arrives is malformed.
        state_ = State::kError;
      }
      return state_;
    }
    if (state_ == State::kError) {
      return state_;
    }
    // Whatever trailed the header (real leftovers were moved to body in
    // ParseHeader) plus synthetic bytes count toward the body.
    body_received_ += pending_synthetic_;
    pending_synthetic_ = 0;
  } else {
    body_received_ += data.size() + synthetic;
  }
  if (body_received_ >= content_length_) {
    state_ = State::kComplete;
  }
  return state_;
}

ResponseReader::State ResponseReader::ParseHeader(std::string_view header) {
  const size_t end = header.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    return state_;
  }
  // Status line: HTTP/x.y CODE REASON.
  if (!header.starts_with("HTTP/")) {
    state_ = State::kError;
    return state_;
  }
  const size_t sp = header.find(' ');
  if (sp == std::string_view::npos) {
    state_ = State::kError;
    return state_;
  }
  status_code_ = static_cast<int>(ParseLeadingInt(header.substr(sp + 1)));
  if (status_code_ < 100 || status_code_ > 599) {
    state_ = State::kError;
    return state_;
  }
  const size_t cl = header.find("Content-Length:");
  if (cl != std::string_view::npos && cl < end) {
    content_length_ = static_cast<size_t>(ParseLeadingInt(header.substr(cl + 15)));
  } else {
    content_length_ = 0;
  }
  // Real bytes past the header belong to the body.
  body_received_ = header.size() - (end + 4);
  header_.clear();
  state_ = State::kBody;
  if (body_received_ >= content_length_) {
    state_ = State::kComplete;
  }
  return state_;
}

}  // namespace scio
