// The functional GEMM against its scalar oracle (gemm_oracle.hpp) on inputs
// built so that the accumulation order shows in the FP16 output: random
// operands round most order changes away, these do not.

#include "gemm_oracle.hpp"

#include <gtest/gtest.h>

#include <bit>
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

TEST(GemmOracle, Fp16ProductsExactInFp32) {
  // The oracle and the kernel round each FP16 x FP16 product to FP32 before
  // adding it. That rounding must be exact, so only the chain's adds round:
  // two significands of at most 11 bits multiply to at most 22, and the
  // product's magnitude (2^-48 to below 2^32) stays in FP32's normal range.
  // Every pair of finite exponent fields (0 = zero and subnormals; 31 is
  // Inf/NaN), every sign pair, the corner significands and sampled ones.
  const std::uint16_t corners[] = {0x000, 0x001, 0x200, 0x3FF};
  Rng rng(21);
  std::vector<std::uint16_t> a_sig, b_sig;
  for (const std::uint16_t x : corners) {
    for (const std::uint16_t y : corners) {
      a_sig.push_back(x);
      b_sig.push_back(y);
    }
  }
  for (int i = 0; i < 240; ++i) {
    a_sig.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 0x3FF)));
    b_sig.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 0x3FF)));
  }
  std::int64_t checked = 0;
  for (std::uint16_t ea = 0; ea < 31; ++ea) {
    for (std::uint16_t eb = 0; eb < 31; ++eb) {
      for (int signs = 0; signs < 4; ++signs) {
        const auto sa = static_cast<std::uint16_t>((signs & 1) << 15);
        const auto sb = static_cast<std::uint16_t>((signs >> 1) << 15);
        for (std::size_t i = 0; i < a_sig.size(); ++i) {
          const half_t a = half_t::from_bits(
              static_cast<std::uint16_t>(sa | ea << 10 | a_sig[i]));
          const half_t b = half_t::from_bits(
              static_cast<std::uint16_t>(sb | eb << 10 | b_sig[i]));
          const double product = a.to_float() * b.to_float();
          const double exact = static_cast<double>(a.to_float()) *
                               static_cast<double>(b.to_float());
          ASSERT_EQ(std::bit_cast<std::uint64_t>(product),
                    std::bit_cast<std::uint64_t>(exact))
              << std::hex << a.bits() << " * " << b.bits();
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 31 * 31 * 4 * (16 + 240));
}

}  // namespace
}  // namespace aift
