// Functional-executor tests: numerical agreement with a double-precision
// reference across shapes and tilings, determinism, fault injection
// semantics, and work counters.

#include "gemm/functional.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "gemm_oracle.hpp"

namespace aift {
namespace {

struct Case {
  GemmShape shape;
  TileConfig tile;
};

class FunctionalParam : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTiles, FunctionalParam,
    ::testing::Values(
        Case{{16, 8, 8}, {32, 32, 32, 16, 16, 2}},
        Case{{64, 64, 64}, {64, 64, 32, 32, 32, 2}},
        Case{{128, 128, 64}, {128, 128, 32, 64, 64, 2}},
        Case{{1, 1, 1}, {32, 32, 32, 16, 16, 2}},        // extreme padding
        Case{{7, 9, 13}, {32, 32, 32, 16, 16, 2}},       // odd everything
        Case{{33, 65, 17}, {32, 64, 32, 16, 32, 2}},     // tile straddling
        Case{{100, 36, 52}, {64, 32, 32, 32, 16, 2}},
        Case{{8, 256, 512}, {16, 64, 32, 16, 16, 2}},    // DLRM-like
        Case{{130, 70, 40}, {128, 64, 32, 64, 32, 2}}),  // edge blocks
    [](const auto& info) {
      const auto& c = info.param;
      return "m" + std::to_string(c.shape.m) + "n" + std::to_string(c.shape.n) +
             "k" + std::to_string(c.shape.k) + "_" + c.tile.name();
    });

TEST_P(FunctionalParam, MatchesReferenceWithinF16Rounding) {
  const auto& [shape, tile] = GetParam();
  Rng rng(42);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c(shape.m, shape.n);
  functional_gemm(a, b, c, tile);
  const auto ref = reference_gemm(a, b);
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      const float expect = ref(i, j);
      const float got = c(i, j).to_float();
      // FP16 store rounding (relative) + FP32 accumulation noise over K
      // products (absolute, can exceed the relative term under
      // cancellation).
      const float tol = 2.0f * half_t::unit_roundoff() * std::abs(expect) +
                        1e-3f;
      EXPECT_NEAR(got, expect, tol) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(FunctionalParam, ParallelMatchesSerialExactly) {
  const auto& [shape, tile] = GetParam();
  Rng rng(7);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c_par(shape.m, shape.n), c_ser(shape.m, shape.n);
  FunctionalOptions par, ser;
  par.parallel = true;
  ser.parallel = false;
  functional_gemm(a, b, c_par, tile, par);
  functional_gemm(a, b, c_ser, tile, ser);
  EXPECT_TRUE(c_par == c_ser);
}

TEST_P(FunctionalParam, F16OutputIsRoundedF32Output) {
  // Every stored element is the FP16 rounding of one ascending-k FP32
  // chain over the padded K (the scalar oracle), bit for bit.
  const auto& [shape, tile] = GetParam();
  Rng rng(9);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c16(shape.m, shape.n);
  functional_gemm(a, b, c16, tile);
  const Matrix<half_t> want = testing::gemm_oracle(a, b, tile);
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      EXPECT_EQ(c16(i, j).bits(), want(i, j).bits());
    }
  }
}

TEST(Functional, Deterministic) {
  Rng rng(1);
  Matrix<half_t> a(64, 48), b(48, 40);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Matrix<half_t> c1(64, 40), c2(64, 40);
  functional_gemm(a, b, c1, tile);
  functional_gemm(a, b, c2, tile);
  EXPECT_TRUE(c1 == c2);
}

TEST(Functional, CountersMatchAnalyticFormulas) {
  const GemmShape shape{100, 70, 50};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Rng rng(2);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c(shape.m, shape.n);
  GemmCounters counters;
  FunctionalOptions opts;
  opts.counters = &counters;
  functional_gemm(a, b, c, tile, opts);

  EXPECT_EQ(counters.blocks, tile.grid_blocks(shape));  // 2x2
  EXPECT_EQ(counters.k8_steps, tile.k8_steps(shape));   // ceil(50/32)*4 = 8
  // MMAs = blocks * (mb/16)*(nb/8) * k8_steps.
  EXPECT_EQ(counters.mmas, counters.blocks * (tile.mb / 16) * (tile.nb / 8) *
                               counters.k8_steps);
  EXPECT_EQ(counters.fp16_stores, shape.m * shape.n);
}

TEST(Functional, SingleFaultChangesOnlyTargetElement) {
  const GemmShape shape{64, 64, 64};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Rng rng(3);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);

  Matrix<half_t> clean(shape.m, shape.n), faulty(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);

  FunctionalOptions opts;
  opts.faults = {FaultSpec{17, 42, -1, 0x20000000u}};  // big exponent flip
  functional_gemm(a, b, faulty, tile, opts);

  int diffs = 0;
  for (std::int64_t i = 0; i < shape.m; ++i) {
    for (std::int64_t j = 0; j < shape.n; ++j) {
      if (!(clean(i, j) == faulty(i, j))) {
        ++diffs;
        EXPECT_EQ(i, 17);
        EXPECT_EQ(j, 42);
      }
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST(Functional, MidKFaultPropagatesToOutput) {
  const GemmShape shape{32, 32, 128};
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Rng rng(4);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);

  Matrix<half_t> clean(shape.m, shape.n), faulty(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);
  FunctionalOptions opts;
  opts.faults = {FaultSpec{5, 6, 3, 0x7F000000u}};  // mid-K, huge corruption
  functional_gemm(a, b, faulty, tile, opts);
  EXPECT_FALSE(clean(5, 6) == faulty(5, 6));
}

TEST(Functional, LowBitFaultMidKCanRoundAway) {
  // A flip of the lowest mantissa bit mid-accumulation may vanish in the
  // final FP16 rounding — the "masked fault" case the campaign runner
  // classifies (undetectable by any output-space scheme, and harmless).
  const GemmShape shape{16, 16, 256};
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Rng rng(5);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> clean(shape.m, shape.n), faulty(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);
  FunctionalOptions opts;
  opts.faults = {FaultSpec{0, 0, 0, 0x1u}};  // LSB of the FP32 accumulator
  functional_gemm(a, b, faulty, tile, opts);
  // The outputs differ by at most one FP16 ulp (often not at all).
  const float diff =
      std::abs(clean(0, 0).to_float() - faulty(0, 0).to_float());
  EXPECT_LE(diff, std::abs(clean(0, 0).to_float()) * half_t::epsilon() + 1e-6f);
}

TEST(Functional, FaultOutsideOutputIgnored) {
  const GemmShape shape{16, 16, 16};
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Rng rng(6);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> clean(shape.m, shape.n), faulty(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);
  FunctionalOptions opts;
  // Row 20 is in the padded region (stored outputs end at 16).
  opts.faults = {FaultSpec{20, 3, -1, 0x7F000000u}};
  functional_gemm(a, b, faulty, tile, opts);
  EXPECT_TRUE(clean == faulty);
}

TEST(Functional, RejectsMismatchedDims) {
  Matrix<half_t> a(4, 5), b(6, 7), c(4, 7);
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  EXPECT_THROW(functional_gemm(a, b, c, tile), std::logic_error);
}

TEST(Functional, ZeroInputsGiveZeroOutputs) {
  Matrix<half_t> a(16, 16, half_t(0.0f)), b(16, 16, half_t(0.0f));
  Matrix<half_t> c(16, 16, half_t(9.0f));
  functional_gemm(a, b, c, TileConfig{32, 32, 32, 16, 16, 2});
  for (std::int64_t i = 0; i < 16; ++i)
    for (std::int64_t j = 0; j < 16; ++j)
      EXPECT_FLOAT_EQ(c(i, j).to_float(), 0.0f);
}

// The stacking invariant the batched serving engine rests on: an output
// element's accumulation order depends only on the K decomposition, so B
// requests stacked into one GEMM reproduce each request's standalone
// output bit for bit — even when a request's rows straddle a threadblock
// boundary (m does not divide mb).
TEST(FunctionalBatched, StackedRequestsMatchStandaloneGemms) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  for (const std::int64_t m : {std::int64_t{1}, std::int64_t{3},
                               std::int64_t{16}}) {
    const std::int64_t batch = 5, k = 40, n = 24;
    Rng rng(71);
    Matrix<half_t> b(k, n);
    rng.fill_uniform(b);
    std::vector<Matrix<half_t>> as;
    Matrix<half_t> stacked_a(batch * m, k);
    for (std::int64_t r = 0; r < batch; ++r) {
      Matrix<half_t> a(m, k);
      rng.fill_uniform(a);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < k; ++j) stacked_a(r * m + i, j) = a(i, j);
      as.push_back(std::move(a));
    }

    Matrix<half_t> stacked_c(batch * m, n);
    BatchedGemmOptions opts;
    // A per-request fault: request 2, its local row min(1, m-1).
    opts.faults.resize(static_cast<std::size_t>(batch));
    const FaultSpec fault{std::min<std::int64_t>(1, m - 1), 2, -1,
                          0x20000000u};
    opts.faults[2] = {fault};
    functional_gemm_batched(stacked_a, pack_operand(b, tile), stacked_c, m,
                            tile, opts);

    for (std::int64_t r = 0; r < batch; ++r) {
      Matrix<half_t> want(m, n);
      FunctionalOptions fopts;
      if (r == 2) fopts.faults = {fault};
      functional_gemm(as[static_cast<std::size_t>(r)], b, want, tile, fopts);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(stacked_c(r * m + i, j).bits(), want(i, j).bits())
              << "m=" << m << " request " << r << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(FunctionalBatched, PaddingOnlyFaultsStayInert) {
  // A fault row outside [0, m) would fall into tile padding standalone;
  // stacked, translating it would corrupt a sibling request, so the
  // batched path must drop it.
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  const std::int64_t batch = 3, m = 4, k = 16, n = 16;
  Rng rng(72);
  Matrix<half_t> a(batch * m, k), b(k, n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const PackedOperand packed = pack_operand(b, tile);
  Matrix<half_t> clean(batch * m, n), faulty(batch * m, n);
  functional_gemm_batched(a, packed, clean, m, tile);
  BatchedGemmOptions opts;
  opts.faults.resize(static_cast<std::size_t>(batch));
  opts.faults[0] = {FaultSpec{m, 0, -1, 0x7F000000u}};  // local row == m
  functional_gemm_batched(a, packed, faulty, m, tile, opts);
  EXPECT_TRUE(clean == faulty);
}

TEST(FunctionalBatched, RejectsRaggedStacking) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Matrix<half_t> a(10, 16), b(16, 16), c(10, 16);
  const PackedOperand packed = pack_operand(b, tile);
  EXPECT_THROW(functional_gemm_batched(a, packed, c, 4, tile),
               std::logic_error);
  EXPECT_THROW(functional_gemm_batched(a, packed, c, 0, tile),
               std::logic_error);
}

}  // namespace
}  // namespace aift
