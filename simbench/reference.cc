#include "simbench/reference.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace simbench {
namespace {

constexpr int kEvents = 50'000;
constexpr uint32_t kConns = 16384;
constexpr int kPending = 4096;

struct Event {
  uint64_t at;
  uint32_t conn;
  bool operator>(const Event& o) const { return at > o.at; }
};

uint64_t Next(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

// Kept outside the loop so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

}  // namespace

double RunReferenceUnit() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<uint32_t, std::unique_ptr<std::array<uint64_t, 8>>> conns;
  for (int i = 0; i < kPending; ++i) {
    heap.push({Next(&rng) % 1000, static_cast<uint32_t>(Next(&rng) % kConns)});
  }
  uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = heap.top();
    heap.pop();
    const uint64_t r = Next(&rng);
    std::unique_ptr<std::array<uint64_t, 8>>& state = conns[e.conn];
    if (state == nullptr) {
      state = std::make_unique<std::array<uint64_t, 8>>();
    }
    (*state)[r % 8] += e.at;
    sum += (*state)[(r >> 3) % 8];
    if ((r >> 6) % 16 == 0) {
      conns.erase(e.conn);
    }
    heap.push({e.at + 1 + (r >> 10) % 1000, static_cast<uint32_t>((r >> 20) % kConns)});
  }
  g_sink = g_sink + sum + conns.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void ReferenceClock::Tick() {
  seconds_ += RunReferenceUnit();
  ++units_;
}

}  // namespace simbench
