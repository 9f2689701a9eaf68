#include "simbench/spans.h"

#include <fstream>

#include "simbench/simbench.h"

namespace simbench {

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(std::string name, int leg) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), NowUs(), -1, parent, leg});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

size_t SpanRecorder::CountNamed(const std::string& prefix) const {
  size_t n = 0;
  for (const Span& span : spans_) {
    n += span.name.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return n;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are the benchmark's own identifiers: no escaping needed.
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << FullPrecision(s.start_us)
        << ", \"dur\": " << FullPrecision(s.end_us - s.start_us) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"leg\": " << s.leg << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace simbench
