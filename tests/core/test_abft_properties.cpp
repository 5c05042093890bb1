// Cross-scheme property sweeps: every thread-level scheme, on every
// candidate tile configuration, against randomized shapes — clean runs
// never flag; a large injected fault is always caught; and the two
// detection paths (ABFT vs replication) agree on verdicts.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/global_abft.hpp"
#include "core/replication.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

// One shape per tile, sized to straddle tile boundaries.
GemmShape shape_for(const TileConfig& t, int variant) {
  switch (variant) {
    case 0:  // exact multiple
      return GemmShape{2 * t.mb, 2 * t.nb, 2 * t.kb};
    case 1:  // ragged edges
      return GemmShape{t.mb + t.mw / 2 + 3, t.nb + t.nw / 2 + 5, t.kb + 9};
    default:  // smaller than one block
      return GemmShape{t.mw - 3, t.nw + 1, 24};
  }
}

struct TileVariant {
  TileConfig tile;
  int variant;
};

class AllTilesProperty : public ::testing::TestWithParam<TileVariant> {};

std::vector<TileVariant> make_cases() {
  std::vector<TileVariant> cases;
  for (const auto& t : candidate_tiles()) {
    // Functional runs on the largest tiles are slow; cap block size.
    if (static_cast<std::int64_t>(t.mb) * t.nb > 128 * 128) continue;
    for (int v = 0; v < 3; ++v) cases.push_back(TileVariant{t, v});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllTilesProperty,
                         ::testing::ValuesIn(make_cases()),
                         [](const auto& info) {
                           std::string n = info.param.tile.name() + "_v" +
                                           std::to_string(info.param.variant);
                           for (auto& c : n)
                             if (c == 'x') c = '_';
                           return n;
                         });

TEST_P(AllTilesProperty, CleanNeverFlagsFaultAlwaysCaught) {
  const auto& [tile, variant] = GetParam();
  const auto shape = shape_for(tile, variant);
  Rng rng(static_cast<std::uint64_t>(variant) * 1000 + tile.mb);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);

  Matrix<half_t> clean(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);
  Matrix<half_t> faulty = clean;
  const std::int64_t fr = shape.m / 2, fc = shape.n / 2;
  // Global ABFT's threshold grows with sum|C|; size the corruption to be
  // decisively above every scheme's threshold for this shape.
  const float delta = 30.0f + 10.0f * half_t::unit_roundoff() *
                                  static_cast<float>(shape.m) * shape.n *
                                  std::sqrt(static_cast<float>(shape.k) / 3.0f);
  faulty(fr, fc) = half_t(faulty(fr, fc).to_float() + delta);

  for (const auto side :
       {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
    ThreadLevelAbft abft(tile, side);
    EXPECT_FALSE(abft.check(a, b, clean).fault_detected)
        << "false positive, side=" << static_cast<int>(side);
    EXPECT_TRUE(abft.check(a, b, faulty).fault_detected)
        << "missed, side=" << static_cast<int>(side);
  }
  for (const auto kind :
       {ReplicationKind::traditional, ReplicationKind::single_accumulation}) {
    ThreadReplication repl(tile, kind);
    EXPECT_FALSE(repl.check(a, b, clean).fault_detected);
    EXPECT_TRUE(repl.check(a, b, faulty).fault_detected);
  }
  GlobalAbft global(b);
  EXPECT_FALSE(global.check(a, clean).fault_detected);
  EXPECT_TRUE(global.check(a, faulty).fault_detected);
}

TEST_P(AllTilesProperty, MultiChecksumDetectsWhereSingleDoes) {
  // Every variant runs: an exact-multiple, a ragged and a sub-block shape
  // each put the corrupted element in a different place of the block grid.
  const auto& [tile, variant] = GetParam();
  const auto shape = shape_for(tile, variant);
  Rng rng(7);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c(shape.m, shape.n);
  functional_gemm(a, b, c, tile);
  const float delta = 30.0f + 10.0f * half_t::unit_roundoff() *
                                  static_cast<float>(shape.m) * shape.n *
                                  std::sqrt(static_cast<float>(shape.k) / 3.0f);
  c(1, 1) = half_t(c(1, 1).to_float() + delta);

  GlobalAbft one(b, 1), two(b, 2), three(b, 3);
  EXPECT_TRUE(one.check(a, c).fault_detected);
  EXPECT_TRUE(two.check(a, c).fault_detected);
  EXPECT_TRUE(three.check(a, c).fault_detected);
  // And the two-checksum variant localizes the row.
  const auto det = two.check(a, c);
  ASSERT_TRUE(det.located_row.has_value());
  EXPECT_EQ(*det.located_row, 1);
}

}  // namespace
}  // namespace aift
