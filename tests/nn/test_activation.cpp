// Inter-layer activation flow tests. The load-bearing property is the
// fused-equals-unfused identity: the executor's non-destructive
// activate_and_repack (and its stacked batch form) must be bit-identical
// to the reference pipeline below — activate in place, then repack — that
// the serial session historically ran.

#include "nn/activation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"

namespace aift {
namespace {

constexpr Activation kAll[] = {Activation::identity, Activation::relu,
                               Activation::squash};

// Reference pipeline, step 1: applies `a` element-wise in place (computed
// in FP32, stored FP16).
void apply_activation(Matrix<half_t>& m, Activation a) {
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      m(r, c) = half_t(activate_value(m(r, c).to_float(), a));
    }
  }
}

// Reference pipeline, step 2: the next layer's rows x cols matrix by index
// wrapping, out(r, c) = prev(r % prev.rows(), c % prev.cols()).
Matrix<half_t> repack_activations(const Matrix<half_t>& prev,
                                  std::int64_t rows, std::int64_t cols) {
  Matrix<half_t> out(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out(r, c) = prev(r % prev.rows(), c % prev.cols());
    }
  }
  return out;
}

Matrix<half_t> random_matrix(std::int64_t rows, std::int64_t cols,
                             std::uint64_t seed) {
  Matrix<half_t> m(rows, cols);
  Rng rng(seed);
  rng.fill_uniform(m, -4.0, 4.0);
  return m;
}

TEST(Activation, FusedFlowMatchesReferencePipelineBitForBit) {
  for (const Activation act : kAll) {
    for (const auto& [pr, pc, rows, cols] :
         {std::tuple{4LL, 24LL, 4LL, 24LL},    // identity repack
          std::tuple{4LL, 32LL, 4LL, 24LL},    // shrink
          std::tuple{3LL, 5LL, 8LL, 13LL},     // wrap both dims
          std::tuple{1LL, 1LL, 6LL, 6LL}}) {   // degenerate source
      const auto prev = random_matrix(pr, pc, 9 + static_cast<int>(act));
      Matrix<half_t> reference = prev;
      apply_activation(reference, act);
      const auto repacked = repack_activations(reference, rows, cols);
      const auto fused = activate_and_repack(prev, act, rows, cols);
      ASSERT_EQ(fused.rows(), repacked.rows());
      ASSERT_EQ(fused.cols(), repacked.cols());
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          EXPECT_EQ(fused(r, c).bits(), repacked(r, c).bits())
              << activation_name(act) << " (" << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(Activation, StackedFlowMatchesPerRequestFlow) {
  const std::int64_t requests = 5, prev_rows = 3, prev_cols = 7;
  const std::int64_t rows = 4, cols = 9;
  for (const Activation act : kAll) {
    Matrix<half_t> stacked(requests * prev_rows, prev_cols);
    std::vector<Matrix<half_t>> bands;
    for (std::int64_t q = 0; q < requests; ++q) {
      auto band = random_matrix(prev_rows, prev_cols,
                                40 + static_cast<std::uint64_t>(q));
      for (std::int64_t r = 0; r < prev_rows; ++r)
        for (std::int64_t c = 0; c < prev_cols; ++c)
          stacked(q * prev_rows + r, c) = band(r, c);
      bands.push_back(std::move(band));
    }
    for (const bool parallel : {true, false}) {
      const auto out = activate_and_repack_stacked(stacked, requests, act,
                                                   rows, cols, parallel);
      ASSERT_EQ(out.rows(), requests * rows);
      for (std::int64_t q = 0; q < requests; ++q) {
        const auto want = activate_and_repack(
            bands[static_cast<std::size_t>(q)], act, rows, cols);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            EXPECT_EQ(out(q * rows + r, c).bits(), want(r, c).bits())
                << activation_name(act) << " request " << q;
          }
        }
      }
    }
  }
}

TEST(Activation, SquashSaturatesInfinitiesDeterministically) {
  // A fault-overflowed FP16 activation must squash to ±1, not NaN, so
  // unprotected corruption propagates deterministically.
  Matrix<half_t> m(1, 2);
  m(0, 0) = half_t(std::numeric_limits<float>::infinity());
  m(0, 1) = half_t(-std::numeric_limits<float>::infinity());
  const auto out = activate_and_repack(m, Activation::squash, 1, 2);
  EXPECT_FLOAT_EQ(out(0, 0).to_float(), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 1).to_float(), -1.0f);
  EXPECT_FLOAT_EQ(
      activate_value(std::numeric_limits<float>::infinity(),
                     Activation::squash),
      1.0f);
}

TEST(Activation, ReluAndIdentityScalarSemantics) {
  EXPECT_FLOAT_EQ(activate_value(-2.5f, Activation::relu), 0.0f);
  EXPECT_FLOAT_EQ(activate_value(2.5f, Activation::relu), 2.5f);
  EXPECT_FLOAT_EQ(activate_value(-2.5f, Activation::identity), -2.5f);
  EXPECT_FLOAT_EQ(activate_value(2.0f, Activation::squash), 2.0f / 3.0f);
}

TEST(Activation, RejectsEmptyShapes) {
  Matrix<half_t> empty_src(0, 0);
  EXPECT_THROW((void)activate_and_repack(empty_src, Activation::squash, 2, 2),
               std::logic_error);
  const auto prev = random_matrix(4, 4, 1);
  EXPECT_THROW(
      (void)activate_and_repack_stacked(prev, 3, Activation::squash, 2, 2),
      std::logic_error);  // 4 rows is not 3 bands
}

}  // namespace
}  // namespace aift
