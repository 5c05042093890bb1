#include "gemm/functional.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"

namespace aift {
namespace {

// Stages the padded FP32 conversion of `m` into the calling thread's
// scratch slot (rows x cols, row-major, zero padding materialized to the
// tile grid). The buffer is read by the whole parallel region; only the
// calling thread writes it, and only before the region starts.
float* stage_f32_padded(ScratchSlot slot, const Matrix<half_t>& m,
                        std::int64_t rows, std::int64_t cols) {
  float* out = scratch_floats(slot, static_cast<std::size_t>(rows * cols));
  std::fill(out, out + rows * cols, 0.0f);
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    float* row = out + r * cols;
    for (std::int64_t c = 0; c < m.cols(); ++c) row[c] = m(r, c).to_float();
  }
  return out;
}

struct BlockFault {
  std::int64_t local_row, local_col, k8_step;
  std::uint32_t xor_bits;
};

// The fault-free inner kernel: eight independent FP32 chains (one per
// column of the MMA group), each accumulating its K products in ascending k
// with a separate multiply and add per product — exactly the scalar chain
// faulty_dot walks, so the fast path is bit-identical to the fault path by
// construction. `panel` points at the group's k-major PackedOperand panel:
// {B(k, col0..col0+7)} is one contiguous 8-float row, 32 bytes after row
// k-1, so the whole K extent streams sequentially.
//
// Written with SSE2 intrinsics rather than left to the autovectorizer
// because GCC, seeing the panel's contiguous 32-byte-per-k stream,
// vectorizes this loop *across k* — a storm of cross-lane permutes to
// keep each chain's adds in strict ascending-k order (no -ffast-math, so
// it cannot reassociate instead), several times slower than lane-per-
// column broadcast+multiply+add. A lane of _mm_mul_ps/_mm_add_ps is the
// same IEEE single-precision operation as the scalar form, so the
// intrinsic and fallback bodies are bit-identical.
inline void dot8_lanes(const float* arow, std::int64_t kpad,
                       const float* panel, float* out) {
#if defined(__SSE2__)
  __m128 s0 = _mm_setzero_ps();
  __m128 s1 = _mm_setzero_ps();
  for (std::int64_t kx = 0; kx < kpad; ++kx, panel += MmaShape::kN) {
    const __m128 av = _mm_set1_ps(arow[kx]);
    s0 = _mm_add_ps(s0, _mm_mul_ps(av, _mm_loadu_ps(panel)));
    s1 = _mm_add_ps(s1, _mm_mul_ps(av, _mm_loadu_ps(panel + 4)));
  }
  _mm_storeu_ps(out, s0);
  _mm_storeu_ps(out + 4, s1);
#else
  float sums[MmaShape::kN] = {};
  for (std::int64_t kx = 0; kx < kpad; ++kx, panel += MmaShape::kN) {
    const float av = arow[kx];
    for (int c = 0; c < MmaShape::kN; ++c) sums[c] += av * panel[c];
  }
  for (int c = 0; c < MmaShape::kN; ++c) out[c] = sums[c];
#endif
}

void apply_fault(float& acc, std::uint32_t xor_bits) {
  acc = std::bit_cast<float>(std::bit_cast<std::uint32_t>(acc) ^ xor_bits);
}

// First float of the k-major panel holding column `col`: the panel's k-th
// 8-float row sits 8 * k floats further on.
const float* panel_of(const PackedOperand& b, std::int64_t col) {
  return b.panels.data() + (col / MmaShape::kN) * b.kpad * MmaShape::kN;
}

// Per-element K chain with injected faults: identical add order to the
// fault-free fast loop (k ascending, i.e. the k8 steps of the blocked
// schedule in order), with each fault's XOR applied at its step boundary —
// exactly where the step-blocked schedule applied it to the accumulator.
// `bcol` is the column's strip in its panel: B(k, col) == bcol[8 * k].
float faulty_dot(const float* arow, const float* bcol,
                 std::int64_t k8_per_block,
                 const std::vector<BlockFault>& faults, std::int64_t row,
                 std::int64_t col) {
  float sum = 0.0f;
  for (std::int64_t step = 0; step < k8_per_block; ++step) {
    const std::int64_t kk = step * MmaShape::kK;
    for (int kx = 0; kx < MmaShape::kK; ++kx) {
      sum += arow[kk + kx] * bcol[(kk + kx) * MmaShape::kN];
    }
    for (const auto& f : faults) {
      if (f.local_row == row && f.local_col == col && f.k8_step == step) {
        apply_fault(sum, f.xor_bits);
      }
    }
  }
  for (const auto& f : faults) {
    if (f.local_row == row && f.local_col == col &&
        (f.k8_step < 0 || f.k8_step >= k8_per_block)) {
      apply_fault(sum, f.xor_bits);
    }
  }
  return sum;
}

// The FP16 store epilogue (round-to-nearest-even, clamped to the real
// unpadded output), shared by the single-request and batched entry points:
// the stacking invariant requires both to store through one definition.
// Full interior blocks take the unguarded loops — the bounds can only clip
// on the grid's edge row/column, so re-checking them per element there is
// pure overhead.
void store_tile(Matrix<half_t>& c, const TileConfig& tile, std::int64_t r0,
                std::int64_t c0, const float* acc) {
  const std::int64_t m = c.rows(), n = c.cols();
  if (r0 + tile.mb <= m && c0 + tile.nb <= n) {
    for (int r = 0; r < tile.mb; ++r) {
      for (int cc = 0; cc < tile.nb; ++cc) {
        c(r0 + r, c0 + cc) =
            half_t(acc[static_cast<std::size_t>(r) * tile.nb + cc]);
      }
    }
    return;
  }
  for (int r = 0; r < tile.mb; ++r) {
    if (r0 + r >= m) break;
    for (int cc = 0; cc < tile.nb; ++cc) {
      if (c0 + cc >= n) break;
      c(r0 + r, c0 + cc) =
          half_t(acc[static_cast<std::size_t>(r) * tile.nb + cc]);
    }
  }
}

// The single definition of the threadblock execution: each output element
// accumulates its K products in ascending k — byte-identical to kb slabs
// of k8-step MMAs walked in order, because both visit an element's
// products in the same sequence. Rows stream in 8-column groups (the MMA
// kN) so eight independent FP32 chains stay in registers, the accumulator
// is written exactly once per element, and B is read from its contiguous
// PackedOperand panels. Any change here must keep an element's
// accumulation order a function of the K decomposition only — the
// stacking invariant rests on that property.
void run_blocks_on(const float* af, const PackedOperand& b, Matrix<half_t>& c,
                   const TileConfig& tile, const FunctionalOptions& opts) {
  const std::int64_t m = c.rows(), n = c.cols(), kpad = b.kpad;
  const std::int64_t k8_per_block = kpad / MmaShape::kK;
  const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
  const std::int64_t bn = (n + tile.nb - 1) / tile.nb;

  std::atomic<std::int64_t> mma_count{0};
  // Fault fast path: the entire serving path injects nothing, so blocks
  // skip fault bookkeeping wholesale when the global list is empty — and
  // once every listed fault has been claimed by its (unique) home block,
  // remaining blocks stop rescanning the list. Claiming is monotone
  // bookkeeping only: a stale read merely causes one redundant scan of a
  // list that cannot match, never a missed or double-applied fault.
  std::atomic<std::int64_t> unclaimed{
      static_cast<std::int64_t>(opts.faults.size())};

  auto body = [&](std::int64_t block) {
    const std::int64_t bi = block / bn;
    const std::int64_t bj = block % bn;
    const std::int64_t r0 = bi * tile.mb;
    const std::int64_t c0 = bj * tile.nb;

    // Faults landing in this block, in local accumulator coordinates.
    std::vector<BlockFault> faults;
    if (unclaimed.load(std::memory_order_relaxed) > 0) {
      for (const auto& f : opts.faults) {
        if (f.row >= r0 && f.row < r0 + tile.mb && f.col >= c0 &&
            f.col < c0 + tile.nb) {
          faults.push_back(
              BlockFault{f.row - r0, f.col - c0, f.k8_step, f.xor_bits});
        }
      }
      if (!faults.empty()) {
        unclaimed.fetch_sub(static_cast<std::int64_t>(faults.size()),
                            std::memory_order_relaxed);
      }
    }

    // No zero-fill: every tile element is written exactly once below
    // (padded elements included — the full predicated tile executes, which
    // is what the MMA counters account).
    float* acc = scratch_floats(
        ScratchSlot::gemm_accumulator,
        static_cast<std::size_t>(tile.mb) * static_cast<std::size_t>(tile.nb));

    for (std::int64_t r = 0; r < tile.mb; ++r) {
      const float* arow = af + (r0 + r) * kpad;
      float* crow = acc + static_cast<std::size_t>(r) * tile.nb;
      for (std::int64_t nj = 0; nj < tile.nb; nj += MmaShape::kN) {
        const float* panel = panel_of(b, c0 + nj);
        bool group_faulty = false;
        for (const auto& f : faults) {
          if (f.local_row == r && f.local_col >= nj &&
              f.local_col < nj + MmaShape::kN) {
            group_faulty = true;
          }
        }
        if (!group_faulty) {
          // Eight independent chains, each in ascending k — the same add
          // sequence per element as the step-blocked MMA schedule, turned
          // into lane-per-column broadcast+multiply+add without
          // reassociating any single chain.
          dot8_lanes(arow, kpad, panel, crow + nj);
        } else {
          for (int cc = 0; cc < MmaShape::kN; ++cc) {
            crow[nj + cc] = faulty_dot(arow, panel + cc, k8_per_block, faults,
                                       r, nj + cc);
          }
        }
      }
    }

    store_tile(c, tile, r0, c0, acc);
    mma_count.fetch_add(
        k8_per_block * (tile.mb / MmaShape::kM) * (tile.nb / MmaShape::kN),
        std::memory_order_relaxed);
  };

  if (opts.parallel) {
    parallel_for(0, bm * bn, body);
  } else {
    serial_for(0, bm * bn, body);
  }

  if (opts.counters != nullptr) {
    opts.counters->mmas = mma_count.load();
    opts.counters->k8_steps = k8_per_block;
    opts.counters->blocks = bm * bn;
    opts.counters->fp16_stores = m * n;
  }
}

// Entry of every GEMM: A is staged per call (activations change every
// layer), B is the caller's pack. The one-shot wrapper packs B first,
// outside this body, so the hot path allocates nothing of its own.
void run_blocks_packed(const Matrix<half_t>& a, const PackedOperand& b,
                       Matrix<half_t>& c, const TileConfig& tile,
                       const FunctionalOptions& opts) {
  AIFT_CHECK_MSG(tile.valid(), "invalid tile config " << tile.name());
  AIFT_CHECK(a.cols() == b.rows);
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols);
  AIFT_CHECK_MSG(b.compatible(a.cols(), c.cols(), tile),
                 "PackedOperand (" << b.rows << "x" << b.cols << ", kb="
                                   << b.kb << ", nb=" << b.nb
                                   << ") does not serve a " << a.cols() << "x"
                                   << c.cols() << " B under tile "
                                   << tile.name());
  const std::int64_t bm = (a.rows() + tile.mb - 1) / tile.mb;
  const float* af =
      stage_f32_padded(ScratchSlot::gemm_staged_a, a, bm * tile.mb, b.kpad);
  run_blocks_on(af, b, c, tile, opts);
}

// Validation + request-local fault translation of the batched entry point.
FunctionalOptions batched_options(const BatchedGemmOptions& opts,
                                  std::int64_t a_rows,
                                  std::int64_t rows_per_request) {
  AIFT_CHECK_MSG(rows_per_request > 0 && a_rows % rows_per_request == 0,
                 "stacked A of " << a_rows << " rows is not a whole number "
                                 << "of " << rows_per_request
                                 << "-row requests");
  const std::int64_t batch = a_rows / rows_per_request;
  AIFT_CHECK(opts.faults.empty() ||
             static_cast<std::int64_t>(opts.faults.size()) == batch);

  // Request-local fault coordinates shift into the request's row band.
  FunctionalOptions fopts;
  fopts.parallel = opts.parallel;
  for (std::size_t r = 0; r < opts.faults.size(); ++r) {
    for (const auto& f : opts.faults[r]) {
      if (f.row < 0 || f.row >= rows_per_request) continue;  // padding-only
      FaultSpec shifted = f;
      shifted.row += static_cast<std::int64_t>(r) * rows_per_request;
      fopts.faults.push_back(shifted);
    }
  }
  return fopts;
}

}  // namespace

void functional_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b,
                     Matrix<half_t>& c, const TileConfig& tile,
                     const FunctionalOptions& opts) {
  functional_gemm(a, pack_operand(b, tile), c, tile, opts);
}

void functional_gemm(const Matrix<half_t>& a, const PackedOperand& b,
                     Matrix<half_t>& c, const TileConfig& tile,
                     const FunctionalOptions& opts) {
  run_blocks_packed(a, b, c, tile, opts);
}

void functional_gemm_batched(const Matrix<half_t>& a, const PackedOperand& b,
                             Matrix<half_t>& c, std::int64_t rows_per_request,
                             const TileConfig& tile,
                             const BatchedGemmOptions& opts) {
  run_blocks_packed(a, b, c, tile,
                    batched_options(opts, a.rows(), rows_per_request));
}

Matrix<float> reference_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b) {
  AIFT_CHECK(a.cols() == b.rows());
  Matrix<float> c(a.rows(), b.cols(), 0.0f);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        sum += static_cast<double>(a(i, k).to_float()) *
               static_cast<double>(b(k, j).to_float());
      }
      c(i, j) = static_cast<float>(sum);
    }
  }
  return c;
}

}  // namespace aift
