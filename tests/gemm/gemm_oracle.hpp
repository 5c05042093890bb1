#pragma once
// Reference functional GEMM: the scalar definition of what functional_gemm
// computes, kept as the oracle its absolute output bits are pinned against.
//
// Each real output element is one FP32 chain over the padded K in
// ascending k, zero padding included, with a separate multiply and add per
// product. A fault's XOR lands on the chain at the end of its k8 step, or
// after the final product when its step is negative or past the last one:
// exactly where the step-blocked MMA schedule applies it. Faults addressed
// to padding rows or columns never reach a stored element, so they are not
// visited. The finished chain is rounded to FP16.

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "gemm/functional.hpp"
#include "gemm/tile_config.hpp"

namespace aift::testing {

inline float xor_bits(float v, std::uint32_t mask) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) ^ mask);
}

inline Matrix<half_t> gemm_oracle(const Matrix<half_t>& a,
                                  const Matrix<half_t>& b,
                                  const TileConfig& tile,
                                  const std::vector<FaultSpec>& faults = {}) {
  AIFT_CHECK(a.cols() == b.rows());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const std::int64_t k8_steps = tile.k8_steps(GemmShape{m, n, k});

  Matrix<half_t> c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (std::int64_t step = 0; step < k8_steps; ++step) {
        for (std::int64_t kk = step * MmaShape::kK;
             kk < (step + 1) * MmaShape::kK; ++kk) {
          const float av = kk < k ? a(i, kk).to_float() : 0.0f;
          const float bv = kk < k ? b(kk, j).to_float() : 0.0f;
          const float product = av * bv;
          sum = sum + product;
        }
        for (const FaultSpec& f : faults) {
          if (f.row == i && f.col == j && f.k8_step == step) {
            sum = xor_bits(sum, f.xor_bits);
          }
        }
      }
      for (const FaultSpec& f : faults) {
        if (f.row == i && f.col == j &&
            (f.k8_step < 0 || f.k8_step >= k8_steps)) {
          sum = xor_bits(sum, f.xor_bits);
        }
      }
      c(i, j) = half_t(sum);
    }
  }
  return c;
}

/// The work counters functional_gemm reports for `shape` under `tile`: the
/// full predicated grid of mb x nb blocks, each running every k8 step of
/// the padded K on (mb / kM) x (nb / kN) MMAs.
inline GemmCounters gemm_oracle_counters(const GemmShape& shape,
                                         const TileConfig& tile) {
  GemmCounters c;
  c.blocks = tile.grid_blocks(shape);
  c.k8_steps = tile.k8_steps(shape);
  c.mmas = c.blocks * c.k8_steps * (tile.mb / MmaShape::kM) *
           (tile.nb / MmaShape::kN);
  c.fp16_stores = shape.m * shape.n;
  return c;
}

}  // namespace aift::testing
