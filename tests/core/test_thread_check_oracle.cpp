// Absolute pin of the thread-level check: ThreadLevelAbft::check must
// reproduce the scalar per-lane replay (thread_level_oracle.hpp) bit for
// bit — detection flag, threads checked, and the failure list in grid
// order with its residual and threshold bits — for every candidate tile,
// edge shapes, clean and faulty outputs, both sides, prepared or not, at
// the default threshold and at a zero threshold that lists every residual.
// Registered under AIFT_NUM_THREADS 1/2/8 as
// thread_check_determinism_threads_*: the multi-task shapes split the
// check over the worker pool, and neither the residuals nor the failure
// order may depend on how many workers there are.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"
#include "thread_level_oracle.hpp"

namespace aift {
namespace {

enum class Faults { clean, single, multi };

const char* name_of(Faults f) {
  switch (f) {
    case Faults::clean: return "clean";
    case Faults::single: return "single";
    case Faults::multi: return "multi";
  }
  return "?";
}

void flip(Matrix<half_t>& c, std::int64_t r, std::int64_t col,
          std::uint16_t mask) {
  c(r, col) = half_t::from_bits(static_cast<std::uint16_t>(c(r, col).bits() ^ mask));
}

// Random finite FP16 values from the subnormals up to 2^5, either sign.
// With uniform [-1, 1] operands every product and partial sum of a chain
// fits a double exactly, so any k order gives the same bits; over this
// range they need more than 53 bits, each chain rounds, and its k order
// shows in the residual.
void fill_wide(Matrix<half_t>& m, Rng& rng) {
  for (std::int64_t i = 0; i < m.size(); ++i) {
    const auto sign = static_cast<std::uint16_t>(rng.uniform_int(0, 1) << 15);
    const auto exponent = static_cast<std::uint16_t>(rng.uniform_int(0, 19) << 10);
    const auto mantissa = static_cast<std::uint16_t>(rng.uniform_int(0, 0x3FF));
    m.data()[i] = half_t::from_bits(
        static_cast<std::uint16_t>(sign | exponent | mantissa));
  }
}

// A clean product of random operands — uniform, or wide-range — then the
// requested corruption: one exponent-bit flip, or several faults including
// a sign flip, an infinity and a NaN (the non-finite branch of the check).
struct Case {
  Matrix<half_t> a, b, c;

  Case(const GemmShape& s, const TileConfig& tile, Faults faults,
       std::uint64_t seed, bool wide)
      : a(s.m, s.k), b(s.k, s.n), c(s.m, s.n) {
    Rng rng(seed);
    if (wide) {
      fill_wide(a, rng);
      fill_wide(b, rng);
    } else {
      rng.fill_uniform(a);
      rng.fill_uniform(b);
    }
    functional_gemm(a, b, c, tile);
    if (faults == Faults::single) {
      flip(c, s.m / 2, s.n / 2, 0x4000u);
    } else if (faults == Faults::multi) {
      flip(c, 0, 0, 0x4000u);
      flip(c, s.m - 1, s.n - 1, 0x8000u);
      c(s.m / 2, 0) = half_t::infinity();
      c(s.m - 1, s.n / 2) = half_t::quiet_nan();
      flip(c, s.m / 3, s.n - 1, 0x2000u);
    }
  }
};

void expect_identical(const ThreadLevelResult& got,
                      const ThreadLevelResult& want) {
  EXPECT_EQ(got.fault_detected, want.fault_detected);
  EXPECT_EQ(got.threads_checked, want.threads_checked);
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (std::size_t i = 0; i < got.failures.size(); ++i) {
    const ThreadCheckFailure& g = got.failures[i];
    const ThreadCheckFailure& w = want.failures[i];
    SCOPED_TRACE("failure " + std::to_string(i));
    EXPECT_EQ(g.block_row, w.block_row);
    EXPECT_EQ(g.block_col, w.block_col);
    EXPECT_EQ(g.warp_m, w.warp_m);
    EXPECT_EQ(g.warp_n, w.warp_n);
    EXPECT_EQ(g.lane, w.lane);
    EXPECT_EQ(g.row, w.row);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.residual),
              std::bit_cast<std::uint64_t>(w.residual));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.threshold),
              std::bit_cast<std::uint64_t>(w.threshold));
  }
}

// A zero threshold flags every check whose residual is not exactly zero,
// so the failure list carries (nearly) every chain's residual bits: a
// reordered chain shows even where the default threshold would pass it.
constexpr ErrorBoundParams kZeroThreshold{0.0, 0.0};

// Checks every (operands, faults, side, threshold, prepared) combination
// of one shape and tile against the oracle.
void pin_shape(const GemmShape& shape, const TileConfig& tile,
               std::uint64_t seed) {
  for (const bool wide : {false, true}) {
    for (const Faults faults :
         {Faults::clean, Faults::single, Faults::multi}) {
      const Case cs(shape, tile, faults, seed, wide);
      for (const auto side :
           {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
        for (const bool zero : {false, true}) {
          const ErrorBoundParams bound =
              zero ? kZeroThreshold : ErrorBoundParams{};
          const ThreadLevelResult want = testing::thread_level_oracle(
              tile, side, bound, cs.a, cs.b, cs.c);
          if (faults != Faults::clean && !wide) {
            // Wide-range outputs carry wide thresholds: a flipped bit can
            // hide there, so only the uniform cases must flag.
            ASSERT_TRUE(want.fault_detected);
          }
          for (const bool prepared : {false, true}) {
            SCOPED_TRACE(tile.name() + " m" + std::to_string(shape.m) + "n" +
                         std::to_string(shape.n) + "k" +
                         std::to_string(shape.k) + (wide ? " wide " : " ") +
                         name_of(faults) +
                         (side == ThreadAbftSide::one_sided ? " one" : " two") +
                         (zero ? " zero-threshold" : "") +
                         (prepared ? " prepared" : " online"));
            ThreadLevelAbft abft(tile, side, bound);
            if (prepared) abft.prepare(cs.b);
            expect_identical(abft.check(cs.a, cs.b, cs.c), want);
          }
        }
      }
    }
  }
}

TEST(ThreadCheckOracle, MatchesScalarReplayOnEdgeShapes) {
  // M = 1, 3 and one row past a block; N = 1, 2, a partial warp of a
  // wide tile, and one block plus a partial one; K = 13 (not a multiple
  // of any k-step).
  std::uint64_t seed = 1;
  for (const TileConfig& tile : candidate_tiles()) {
    for (const std::int64_t m : {std::int64_t{1}, std::int64_t{3},
                                 std::int64_t{tile.mb + 1}}) {
      for (const std::int64_t n : {std::int64_t{1}, std::int64_t{2},
                                   std::int64_t{24},
                                   std::int64_t{tile.nb + 24}}) {
        pin_shape(GemmShape{m, n, 13}, tile, seed++);
      }
    }
  }
}

TEST(ThreadCheckOracle, MatchesScalarReplayAcrossTasks) {
  // Enough rows (one-sided) and row groups (two-sided) that the check
  // splits into several pool tasks, plus a K past the panel-free sizes.
  std::uint64_t seed = 100;
  for (const TileConfig& tile : candidate_tiles()) {
    pin_shape(GemmShape{577, tile.nb + 40, 29}, tile, seed++);
  }
}

TEST(ThreadCheckOracle, FailuresComeOutInGridOrder) {
  // A fault in every output element: every lane of every warp fails, in
  // (block_row, block_col, warp_m, warp_n, lane, row) order, at any worker
  // count.
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  const GemmShape shape{150, 70, 13};
  Case cs(shape, tile, Faults::clean, 7, false);
  for (std::int64_t r = 0; r < shape.m; ++r) {
    for (std::int64_t col = 0; col < shape.n; ++col) flip(cs.c, r, col, 0x4000u);
  }
  const auto key = [](const ThreadCheckFailure& f) {
    return std::tie(f.block_row, f.block_col, f.warp_m, f.warp_n, f.lane,
                    f.row);
  };
  for (const auto side :
       {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
    const ThreadLevelResult res =
        ThreadLevelAbft(tile, side).check(cs.a, cs.b, cs.c);
    ASSERT_FALSE(res.failures.empty());
    EXPECT_TRUE(std::is_sorted(
        res.failures.begin(), res.failures.end(),
        [&](const auto& x, const auto& y) { return key(x) < key(y); }));
    expect_identical(res, testing::thread_level_oracle(
                              tile, side, ErrorBoundParams{}, cs.a, cs.b,
                              cs.c));
  }
}

}  // namespace
}  // namespace aift
