// Fault-injection campaign tests: detection coverage of each scheme under
// randomized single-bit accumulator faults (the software analogue of the
// §2.2 fault-injection studies).

#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include "core/checksum.hpp"
#include "core/error_bound.hpp"
#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "../core/replication_oracle.hpp"

namespace aift {
namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.shape = GemmShape{48, 48, 48};
  cfg.tile = TileConfig{32, 32, 32, 16, 16, 2};
  cfg.trials = 60;
  cfg.seed = 1234;
  return cfg;
}

FaultChecker global_checker() {
  return [](const Matrix<half_t>& a, const Matrix<half_t>& b,
            const Matrix<half_t>& c) {
    return GlobalAbft(b).check(a, c).fault_detected;
  };
}

FaultChecker thread_checker(const TileConfig& tile, ThreadAbftSide side) {
  return [tile, side](const Matrix<half_t>& a, const Matrix<half_t>& b,
                      const Matrix<half_t>& c) {
    return ThreadLevelAbft(tile, side).check(a, b, c).fault_detected;
  };
}

TEST(Campaign, AccountingIsExhaustive) {
  auto cfg = base_config();
  const auto stats = run_campaign(cfg, global_checker());
  EXPECT_EQ(stats.trials, cfg.trials);
  EXPECT_EQ(stats.detected + stats.masked + stats.missed, stats.trials);
  std::int64_t by_bit_injected = 0;
  for (const auto& b : stats.by_bit) by_bit_injected += b.injected;
  EXPECT_EQ(by_bit_injected, stats.trials);
}

TEST(Campaign, Deterministic) {
  auto cfg = base_config();
  const auto s1 = run_campaign(cfg, global_checker());
  const auto s2 = run_campaign(cfg, global_checker());
  EXPECT_EQ(s1.detected, s2.detected);
  EXPECT_EQ(s1.masked, s2.masked);
  EXPECT_EQ(s1.missed, s2.missed);
}

// Note on coverage expectations: an exponent flip that *clears* a bit can
// shrink a small value toward zero — a corruption whose magnitude falls
// below the checker's rounding threshold. Such faults are missed by design
// (they are indistinguishable from rounding at the check's granularity);
// high-bit campaigns therefore demand near-total, not total, coverage for
// the sum-based checks, and total coverage for element-wise replication.

TEST(Campaign, GlobalAbftMissesOnlySubThresholdFaults) {
  // On a 48^3 GEMM the whole-matrix threshold is ~ 4*u16*sum|C|; exponent
  // flips that *shrink* a value produce corruptions below it and are
  // legitimately missed. The property to guarantee: every corruption
  // *above* the threshold is detected.
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 26;
  cfg.fault_opts.max_bit = 30;
  cfg.trials = 80;
  const auto stats = run_campaign(cfg, global_checker());
  EXPECT_GT(stats.detected, 0);

  // Reconstruct the campaign's deterministic clean output for the
  // threshold the global check applied.
  Rng rng(cfg.seed);
  Matrix<half_t> a(cfg.shape.m, cfg.shape.k), b(cfg.shape.k, cfg.shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  Matrix<half_t> c(cfg.shape.m, cfg.shape.n);
  functional_gemm(a, b, c, cfg.tile);
  const double tau = detection_threshold(matrix_sum(c).abs_sum);
  EXPECT_LE(stats.largest_missed_delta, tau);
}

TEST(Campaign, ThreadLevelOneSidedCatchesNearlyAllHighBitFaults) {
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 26;
  cfg.fault_opts.max_bit = 30;
  cfg.trials = 80;
  const auto stats =
      run_campaign(cfg, thread_checker(cfg.tile, ThreadAbftSide::one_sided));
  EXPECT_LE(stats.missed, 2);
  EXPECT_GE(stats.effective_coverage(), 0.97);
}

TEST(Campaign, ThreadLevelTwoSidedCatchesNearlyAllHighBitFaults) {
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 26;
  cfg.fault_opts.max_bit = 30;
  cfg.trials = 60;
  const auto stats =
      run_campaign(cfg, thread_checker(cfg.tile, ThreadAbftSide::two_sided));
  EXPECT_LE(stats.missed, 2);
  EXPECT_GE(stats.effective_coverage(), 0.96);
}

TEST(Campaign, TraditionalReplicationCatchesAllHighBitFaults) {
  // Element-wise compare has per-value thresholds: even "shrink" faults
  // are visible, so coverage is total.
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 26;
  cfg.fault_opts.max_bit = 30;
  cfg.trials = 60;
  const auto stats = run_campaign(
      cfg, [&](const Matrix<half_t>& a, const Matrix<half_t>& b,
               const Matrix<half_t>& c) {
        return testing::replication_oracle(
                   cfg.tile, testing::ReplicationKind::traditional, a, b, c)
            .fault_detected;
      });
  EXPECT_EQ(stats.missed, 0);
  EXPECT_DOUBLE_EQ(stats.effective_coverage(), 1.0);
}

TEST(Campaign, LowBitFaultsMostlyMaskedByRounding) {
  // Flips of the low FP32 mantissa bits are usually below the FP16 output
  // quantum: they never reach a stored output.
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 0;
  cfg.fault_opts.max_bit = 8;
  cfg.trials = 80;
  const auto stats = run_campaign(cfg, global_checker());
  EXPECT_GT(stats.masked, stats.trials / 2);
}

TEST(Campaign, ThreadLevelCoverageAtLeastGlobalOnMidBits) {
  // Thread-local checks have tighter thresholds (sums over Nt values, not
  // M*N), so their effective coverage on borderline-magnitude faults is at
  // least global ABFT's.
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 12;
  cfg.fault_opts.max_bit = 22;
  cfg.trials = 120;
  const auto g = run_campaign(cfg, global_checker());
  const auto t =
      run_campaign(cfg, thread_checker(cfg.tile, ThreadAbftSide::one_sided));
  EXPECT_GE(t.effective_coverage() + 1e-12, g.effective_coverage());
}

TEST(Campaign, MidKCoverageOrderingAcrossSchemes) {
  // Mid-accumulation exponent flips often shrink a partial sum — a small
  // absolute corruption. Checks with finer granularity (tighter
  // thresholds) catch strictly more of them: element-wise replication >=
  // per-thread-row one-sided ABFT >= whole-matrix global ABFT.
  auto cfg = base_config();
  cfg.fault_opts.min_bit = 27;
  cfg.fault_opts.max_bit = 29;
  cfg.fault_opts.at_output_only = false;
  cfg.trials = 60;
  const auto global = run_campaign(cfg, global_checker());
  const auto thread =
      run_campaign(cfg, thread_checker(cfg.tile, ThreadAbftSide::one_sided));
  const auto repl = run_campaign(
      cfg, [&](const Matrix<half_t>& a, const Matrix<half_t>& b,
               const Matrix<half_t>& c) {
        return testing::replication_oracle(
                   cfg.tile, testing::ReplicationKind::traditional, a, b, c)
            .fault_detected;
      });
  EXPECT_GE(thread.effective_coverage(), global.effective_coverage());
  EXPECT_GE(repl.effective_coverage(), thread.effective_coverage());
  EXPECT_DOUBLE_EQ(repl.effective_coverage(), 1.0);
  EXPECT_GT(global.effective_coverage(), 0.2);
}

TEST(Campaign, SweepCoversShapeAndTileGrid) {
  // One call fans the campaign across shapes/tiles; each entry must carry
  // its resolved config and obey the same accounting invariants.
  auto base = base_config();
  base.trials = 30;
  const std::vector<CampaignSweepCase> cases = {
      {GemmShape{48, 48, 48}, TileConfig{32, 32, 32, 16, 16, 2}},
      {GemmShape{32, 64, 48}, TileConfig{32, 32, 32, 16, 16, 2}},
      {GemmShape{64, 64, 64}, TileConfig{64, 64, 32, 32, 32, 2}},
  };
  const auto results = run_campaign_sweep(base, cases, global_checker());
  ASSERT_EQ(results.size(), cases.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].config.shape == cases[i].shape);
    EXPECT_TRUE(results[i].config.tile == cases[i].tile);
    EXPECT_EQ(results[i].stats.trials, base.trials);
    EXPECT_EQ(results[i].stats.detected + results[i].stats.masked +
                  results[i].stats.missed,
              results[i].stats.trials);
  }
}

TEST(Campaign, SweepRejectsEmptyCaseList) {
  EXPECT_THROW((void)run_campaign_sweep(base_config(), {}, global_checker()),
               std::logic_error);
}

TEST(Campaign, RejectsBadConfig) {
  auto cfg = base_config();
  cfg.trials = 0;
  EXPECT_THROW((void)run_campaign(cfg, global_checker()), std::logic_error);
  cfg.trials = 1;
  EXPECT_THROW((void)run_campaign(cfg, nullptr), std::logic_error);
}

}  // namespace
}  // namespace aift
