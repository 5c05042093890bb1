// The functional GEMM against its scalar oracle (gemm_oracle.hpp) on inputs
// built so that the accumulation order shows in the FP16 output: random
// operands round most order changes away, these do not.

#include "gemm_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gemm/functional.hpp"
#include "gemm/packed_operand.hpp"

namespace aift {
namespace {

// Every output's products are 2^24, then K - 2 ones, then -2^24. In
// ascending k each one is absorbed (2^24 + 1 rounds to 2^24 under
// round-to-nearest-even), so the chain ends at exactly 0. Any other order
// of some chain — descending k, a split accumulator, a fused multiply-add
// — leaves a nonzero remainder of the ones.
void cancelling_operands(std::int64_t m, std::int64_t n, std::int64_t k,
                         Matrix<half_t>& a, Matrix<half_t>& b) {
  a = Matrix<half_t>(m, k, half_t(1.0f));
  b = Matrix<half_t>(k, n, half_t(1.0f));
  for (std::int64_t i = 0; i < m; ++i) {
    a(i, 0) = half_t(2048.0f);
    a(i, k - 1) = half_t(-2048.0f);
  }
  for (std::int64_t j = 0; j < n; ++j) {
    b(0, j) = half_t(8192.0f);
    b(k - 1, j) = half_t(8192.0f);
  }
}

TEST(GemmOracle, AscendingKChainOnCancellingProducts) {
  const GemmShape shape{37, 45, 70};  // ragged in every dimension
  Matrix<half_t> a, b;
  cancelling_operands(shape.m, shape.n, shape.k, a, b);
  for (const TileConfig& tile : candidate_tiles()) {
    const Matrix<half_t> want = testing::gemm_oracle(a, b, tile);
    ASSERT_TRUE(want == Matrix<half_t>(shape.m, shape.n, half_t(0.0f)))
        << "oracle is not the ascending chain under " << tile.name();
    for (const bool parallel : {false, true}) {
      FunctionalOptions opts;
      opts.parallel = parallel;
      Matrix<half_t> got(shape.m, shape.n);
      functional_gemm(a, pack_operand(b, tile), got, tile, opts);
      EXPECT_TRUE(got == want)
          << tile.name() << (parallel ? " parallel" : " serial");
    }
  }
}

TEST(GemmOracle, FaultXorLandsAtItsStepBoundary) {
  // One fault per k8 step of the padded K (and one after the last), each
  // on its own element: the faulty per-element chain must XOR each at the
  // same point of the ascending chain as the oracle.
  const GemmShape shape{20, 30, 50};
  const TileConfig tile{32, 32, 32, 16, 16, 2};  // K pads to 64: 8 steps
  Rng rng(13);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  FunctionalOptions opts;
  for (std::int64_t step = -1; step < 9; ++step) {
    opts.faults.push_back(
        FaultSpec{step + 1, 2 * step + 3, step, 0x00400000u});
  }
  Matrix<half_t> got(shape.m, shape.n);
  functional_gemm(a, b, got, tile, opts);
  EXPECT_TRUE(got == testing::gemm_oracle(a, b, tile, opts.faults));
}

}  // namespace
}  // namespace aift
