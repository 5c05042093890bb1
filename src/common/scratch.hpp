#pragma once
// Thread-reusable scratch buffers for the functional-GEMM hot path.
//
// Every functional_gemm call used to heap-allocate its padded FP32 operand
// copies and every threadblock its accumulator — once per layer per
// request per retry, pure allocator traffic on the serving path. The
// arena replaces those with per-thread buffers that grow to the high-water
// mark of the shapes a thread executes and are then reused: the worker
// pool's threads are long-lived (common/parallel.cpp), so in steady state
// a serving round performs zero scratch allocations.
//
// Buffers are thread-local, so the arena is race-free by construction at
// any AIFT_NUM_THREADS; only the hit/miss counters are shared (atomic).
// Slots partition a thread's buffers by use so two live buffers on one
// thread (e.g. the staged A operand read by the whole parallel region and
// the accumulator of a block the calling thread itself executes) can
// never alias. Contents are unspecified on return — callers initialize
// what they use.
//
// The counters mirror ProfileCache::stats(): a hit is a request served by
// an already-large-enough buffer, a miss had to (re)allocate. Tests pin
// "zero new allocations per steady-state serving round" on the miss
// counter so the optimization cannot silently rot.
//
// Thread-safety annotations (common/annotations.hpp): this file has
// nothing to annotate BY DESIGN — the buffers are thread_local (no
// capability can be shared) and the two counters are std::atomic, which
// the Clang analysis treats as safe unguarded. If a future change ever
// replaces an atomic here with a plain counter, it must come back under
// an aift::Mutex + AIFT_GUARDED_BY or the Clang CI leg will flag every
// cross-thread access.

#include <cstddef>
#include <cstdint>

namespace aift {

/// Per-thread buffer slots. A thread holds at most one live buffer per
/// slot; distinct concurrent uses must use distinct slots.
enum class ScratchSlot : int {
  gemm_accumulator = 0,  ///< per-block FP32 accumulator (any pool worker)
  gemm_staged_a = 1,     ///< per-call padded FP32 staging of operand A
  check_operands = 2,    ///< thread-level check task: FP32 decode of its A and
                         ///< C rows (floats); its output sums and, two-sided,
                         ///< row-group sums of A (doubles)
  check_panel = 3,       ///< unprepared thread-level check's checksum panel
};

inline constexpr std::size_t kNumScratchSlots = 4;

/// Process-wide scratch counters, aggregated across every thread.
struct ScratchStats {
  std::int64_t hits = 0;    ///< requests served without allocating
  std::int64_t misses = 0;  ///< requests that had to (re)allocate

  [[nodiscard]] std::int64_t requests() const { return hits + misses; }
};

/// Returns the calling thread's buffer for `slot`, grown (never shrunk)
/// to hold at least `count` floats. Contents are unspecified. The pointer
/// stays valid until the same thread requests the same slot again.
[[nodiscard]] float* scratch_floats(ScratchSlot slot, std::size_t count);

/// The same for a buffer of `count` doubles. A slot's float and double
/// buffers are distinct storage, counted in the same hit/miss ledger.
[[nodiscard]] double* scratch_doubles(ScratchSlot slot, std::size_t count);

[[nodiscard]] ScratchStats scratch_stats();
void reset_scratch_stats();

}  // namespace aift
