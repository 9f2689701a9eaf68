// Spans recorded by the benchmark's own code around its calls into the
// simulator: name, start, end, parent span and a leg id shared by the spans
// of one leg. Kept in memory; written once, as Chrome trace-event JSON
// (loads in about:tracing or ui.perfetto.dev).

#ifndef SIMBENCH_SPANS_H_
#define SIMBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace simbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span whose parent is the innermost open span; returns its id.
  int Begin(std::string name, int leg);
  void End(int id);

  size_t size() const { return spans_.size(); }
  size_t CountNamed(const std::string& prefix) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;  // < 0 while open
    int parent = -1;
    int leg = -1;
  };
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int leg = -1)
      : recorder_(recorder), id_(recorder ? recorder->Begin(std::move(name), leg) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace simbench

#endif  // SIMBENCH_SPANS_H_
