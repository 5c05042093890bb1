#include "common/scratch.hpp"

#include <array>
#include <atomic>
#include <memory>

namespace aift {
namespace {

template <typename T>
struct Buffer {
  std::unique_ptr<T[]> data;
  std::size_t capacity = 0;
};

std::atomic<std::int64_t> g_hits{0};
std::atomic<std::int64_t> g_misses{0};

thread_local std::array<Buffer<float>, kNumScratchSlots> t_floats;
thread_local std::array<Buffer<double>, kNumScratchSlots> t_doubles;

template <typename T>
T* grab(Buffer<T>& buf, std::size_t count) {
  if (buf.capacity >= count) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // new[] rather than make_unique: the contents are overwritten by the
    // caller, so value-initializing the whole buffer would be pure waste.
    buf.data.reset(new T[count]);
    buf.capacity = count;
    g_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return buf.data.get();
}

}  // namespace

float* scratch_floats(ScratchSlot slot, std::size_t count) {
  return grab(t_floats[static_cast<std::size_t>(slot)], count);
}

double* scratch_doubles(ScratchSlot slot, std::size_t count) {
  return grab(t_doubles[static_cast<std::size_t>(slot)], count);
}

ScratchStats scratch_stats() {
  ScratchStats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  return s;
}

void reset_scratch_stats() {
  g_hits.store(0, std::memory_order_relaxed);
  g_misses.store(0, std::memory_order_relaxed);
}

}  // namespace aift
