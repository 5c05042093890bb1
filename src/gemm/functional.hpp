#pragma once
// Functional executor for the hierarchical tensor-core GEMM.
//
// Emulates exactly what the cost model prices: the kernel is decomposed
// into threadblock tiles, each of which walks the K dimension in kb slabs
// of m16n8k8 MMAs, accumulating in FP32 and storing FP16 (paper §2.1).
// Threadblocks are executed in parallel on CPU workers. Faults (paper
// §2.3: a single faulty output value caused by an error in processing
// logic) are injected by XOR-ing bits into a chosen FP32 accumulator after
// a chosen k8-step, then propagate naturally to the stored output.

#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "gemm/gemm_shape.hpp"
#include "gemm/packed_operand.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

/// One injected fault. Coordinates address the output element whose
/// accumulator is corrupted; k8_step selects when (-1 = after the final
/// accumulation, i.e. corrupt the finished value before the store).
struct FaultSpec {
  std::int64_t row = 0;
  std::int64_t col = 0;
  std::int64_t k8_step = -1;
  std::uint32_t xor_bits = 0x00400000u;  // flip a high mantissa bit
};

/// Execution counters used to cross-check the analytic per-scheme op
/// counts of Table 1 and to validate the cost model's work accounting.
struct GemmCounters {
  std::int64_t mmas = 0;
  std::int64_t k8_steps = 0;
  std::int64_t blocks = 0;
  std::int64_t fp16_stores = 0;
};

struct FunctionalOptions {
  bool parallel = true;
  std::vector<FaultSpec> faults;
  GemmCounters* counters = nullptr;
};

/// C (M x N, FP16) = A (M x K, FP16) * B (K x N, FP16), FP32 accumulation,
/// FP16 store (round-to-nearest-even). Out-of-range reads behave as zero
/// padding; the tile grid covers ceil dims like a predicated GPU kernel.
/// One-shot form: packs B for `tile` (gemm/packed_operand.hpp), then runs
/// the packed overload, so it is bit-identical to packing once and reusing
/// the pack — outputs, counters and fault semantics.
void functional_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b,
                     Matrix<half_t>& c, const TileConfig& tile,
                     const FunctionalOptions& opts = {});

/// The GEMM every path runs: B was converted and panel-packed by the
/// caller, once per (weights, tile) for a serving session, and the
/// threadblocks read it as contiguous k-major panels.
void functional_gemm(const Matrix<half_t>& a, const PackedOperand& b,
                     Matrix<half_t>& c, const TileConfig& tile,
                     const FunctionalOptions& opts = {});

/// Options of the batched (multi-request) entry point.
struct BatchedGemmOptions {
  bool parallel = true;
  /// faults[r] are injected into request r's row band, in request-local
  /// coordinates (row within [0, rows_per_request)). Faults whose row falls
  /// outside the request — which in a standalone GEMM would land in tile
  /// padding and never reach a stored output — are dropped rather than
  /// translated, so they stay inert instead of corrupting a sibling row.
  std::vector<std::vector<FaultSpec>> faults;
};

/// One GEMM for B stacked requests sharing the packed weight matrix: `a`
/// holds the B requests' activation rows stacked vertically
/// (B * rows_per_request x K) and `c` receives the stacked outputs
/// (B * rows_per_request x N). The serving engine packs each layer's
/// weights once at session construction, and every wave, retry and
/// campaign trial serves from the same pack.
///
/// Bit-identical per request to running each request's GEMM alone: an
/// output element's FP32 accumulation order depends only on the K
/// decomposition (kb slabs of k8 MMA steps), never on M, the row's position
/// in the grid, or which threadblock computes it. Stacking amortizes the
/// threadblock padding that dominates small-M serving shapes (an M=1
/// request still pays a full mb-row tile).
void functional_gemm_batched(const Matrix<half_t>& a, const PackedOperand& b,
                             Matrix<half_t>& c, std::int64_t rows_per_request,
                             const TileConfig& tile,
                             const BatchedGemmOptions& opts = {});

/// Naive double-precision reference (no tiling, no FP16 store) for tests.
Matrix<float> reference_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b);

}  // namespace aift
