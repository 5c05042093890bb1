// Self-tests of the reference thread-level replication (paper §4) that the
// coverage tests compare thread-level ABFT against.

#include "replication_oracle.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

using testing::replication_oracle;
using testing::ReplicationKind;

struct Env {
  Matrix<half_t> a, b, c;
  Env(GemmShape s, const TileConfig& tile, std::uint64_t seed = 42,
      std::vector<FaultSpec> faults = {})
      : a(s.m, s.k), b(s.k, s.n), c(s.m, s.n) {
    Rng rng(seed);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    FunctionalOptions opts;
    opts.faults = std::move(faults);
    functional_gemm(a, b, c, tile, opts);
  }
};

class ReplicationParam : public ::testing::TestWithParam<ReplicationKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, ReplicationParam,
                         ::testing::Values(ReplicationKind::traditional,
                                           ReplicationKind::single_accumulation),
                         [](const auto& info) {
                           return info.param == ReplicationKind::traditional
                                      ? "traditional"
                                      : "single_acc";
                         });

TEST_P(ReplicationParam, NoFalsePositiveOnClean) {
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env({96, 96, 64}, tile);
  const auto res = replication_oracle(tile, GetParam(), env.a, env.b, env.c);
  EXPECT_FALSE(res.fault_detected);
  EXPECT_GT(res.threads_checked, 0);
}

TEST_P(ReplicationParam, DetectsInjectedFault) {
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env({96, 96, 64}, tile, 43, {FaultSpec{50, 60, -1, 0x20000000u}});
  EXPECT_TRUE(
      replication_oracle(tile, GetParam(), env.a, env.b, env.c).fault_detected);
}

TEST_P(ReplicationParam, CleanOnEdgeShapes) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Env env({37, 21, 50}, tile, 44);
  EXPECT_FALSE(
      replication_oracle(tile, GetParam(), env.a, env.b, env.c).fault_detected);
}

TEST(Replication, TraditionalLocalizesExactElement) {
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env({64, 64, 32}, tile, 45, {FaultSpec{19, 26, -1, 0x20000000u}});
  const auto res = replication_oracle(tile, ReplicationKind::traditional,
                                      env.a, env.b, env.c);
  ASSERT_TRUE(res.fault_detected);
  EXPECT_EQ(res.failures.front().row, 19);  // exact row reported
}

TEST(Replication, SingleAccIsThreadScalar) {
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env({64, 64, 32}, tile, 46, {FaultSpec{19, 26, -1, 0x20000000u}});
  const auto res = replication_oracle(
      tile, ReplicationKind::single_accumulation, env.a, env.b, env.c);
  ASSERT_TRUE(res.fault_detected);
  EXPECT_EQ(res.failures.front().row, -1);
}

TEST(Replication, TraditionalDetectsSmallerFaultsThanSingleAcc) {
  // Element-wise compare has a per-element threshold; single-accumulation
  // compares a sum of Mt*Nt values — its threshold is proportionally
  // looser. A fault sized between the two is caught only by traditional.
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env({64, 64, 64}, tile, 47);
  Matrix<half_t> c = env.c;
  const float v = c(12, 12).to_float();
  c(12, 12) = half_t(v + 0.15f);

  EXPECT_TRUE(
      replication_oracle(tile, ReplicationKind::traditional, env.a, env.b, c)
          .fault_detected);
}

TEST(Replication, RejectsInvalidTile) {
  const Matrix<half_t> a(8, 8), b(8, 8), c(8, 8);
  EXPECT_THROW((void)replication_oracle(TileConfig{100, 64, 32, 64, 32, 2},
                                        ReplicationKind::traditional, a, b, c),
               std::logic_error);
}

}  // namespace
}  // namespace aift
