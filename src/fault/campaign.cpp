#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace aift {
namespace {

// Small campaigns get one trial per block (full fan-out); the block-count
// cap keeps the per-block partials array a few MB even for paper-scale
// campaigns (millions of trials).
constexpr std::int64_t kMaxBlocks = 4096;

// Inputs shared by every trial of one campaign. A, B and the clean output
// are generated once from Rng(config.seed), exactly as the serial engine
// always did — tests reconstruct this stream to recover the clean C.
struct CampaignContext {
  const CampaignConfig& config;
  const FaultChecker& checker;
  Matrix<half_t> a;
  Matrix<half_t> b;
  // B packed once for the campaign's tile; every trial's faulty GEMM (and
  // the clean reference below) serves from it instead of packing per call.
  PackedOperand b_packed;
  Matrix<half_t> c_clean;

  // Validated before the matrices allocate (config is the first member),
  // so a bad config throws logic_error without paying for a large shape.
  static const CampaignConfig& validated(const CampaignConfig& cfg,
                                         const FaultChecker& chk) {
    AIFT_CHECK(cfg.trials > 0);
    AIFT_CHECK(chk != nullptr);
    return cfg;
  }

  CampaignContext(const CampaignConfig& cfg, const FaultChecker& chk)
      : config(validated(cfg, chk)),
        checker(chk),
        a(cfg.shape.m, cfg.shape.k),
        b(cfg.shape.k, cfg.shape.n),
        c_clean(cfg.shape.m, cfg.shape.n) {
    Rng rng(cfg.seed);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    b_packed = pack_operand(b, cfg.tile);
    functional_gemm(a, b_packed, c_clean, cfg.tile);
  }
};

// Runs trial `t` and accumulates its outcome into `stats`. The trial's
// fault site comes from its own RNG stream, so the classification depends
// only on (config, t) — not on which worker ran it or in what order.
// `parallel_gemm` selects parallel execution of the faulty GEMM; parallel
// and serial execution are bit-identical, so it never affects stats.
void run_trial(const CampaignContext& ctx, std::int64_t t,
               CampaignStats& stats, bool parallel_gemm) {
  const CampaignConfig& config = ctx.config;
  Rng rng(campaign_trial_seed(config.seed, t));
  const FaultSpec fault =
      random_fault(rng, config.shape, config.tile, config.fault_opts);
  const int bit = fault_bit(fault);

  Matrix<half_t> c(config.shape.m, config.shape.n);
  FunctionalOptions opts;
  opts.parallel = parallel_gemm;
  opts.faults = {fault};
  functional_gemm(ctx.a, ctx.b_packed, c, config.tile, opts);

  const bool changed = !(c == ctx.c_clean);

  ++stats.trials;
  if (bit >= 0) ++stats.by_bit[static_cast<std::size_t>(bit)].injected;
  if (!changed) {
    // Mutually exclusive with detected/missed: the fault rounded away
    // before reaching any stored output — no point running the checker.
    ++stats.masked;
    if (bit >= 0) ++stats.by_bit[static_cast<std::size_t>(bit)].masked;
    return;
  }
  if (ctx.checker(ctx.a, ctx.b, c)) {
    ++stats.detected;
    if (bit >= 0) ++stats.by_bit[static_cast<std::size_t>(bit)].detected;
  } else {
    ++stats.missed;
    double max_delta = 0.0;
    for (std::int64_t r = 0; r < c.rows(); ++r) {
      for (std::int64_t j = 0; j < c.cols(); ++j) {
        const double d = std::abs(static_cast<double>(c(r, j).to_float()) -
                                  ctx.c_clean(r, j).to_float());
        max_delta = std::max(max_delta, d);
      }
    }
    stats.largest_missed_delta =
        std::max(stats.largest_missed_delta, max_delta);
  }
}

}  // namespace

double CampaignStats::effective_coverage() const {
  const std::int64_t effective = trials - masked;
  if (effective <= 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(effective);
}

CampaignStats& CampaignStats::merge(const CampaignStats& other) {
  trials += other.trials;
  detected += other.detected;
  masked += other.masked;
  missed += other.missed;
  for (std::size_t i = 0; i < by_bit.size(); ++i) {
    by_bit[i].injected += other.by_bit[i].injected;
    by_bit[i].detected += other.by_bit[i].detected;
    by_bit[i].masked += other.by_bit[i].masked;
  }
  largest_missed_delta =
      std::max(largest_missed_delta, other.largest_missed_delta);
  return *this;
}

std::uint64_t campaign_trial_seed(std::uint64_t campaign_seed,
                                  std::int64_t trial) {
  return derive_seed(campaign_seed, static_cast<std::uint64_t>(trial));
}

std::int64_t campaign_trials_per_block(std::int64_t trials) {
  return std::max<std::int64_t>(1, (trials + kMaxBlocks - 1) / kMaxBlocks);
}

CampaignStats run_campaign(const CampaignConfig& config,
                           const FaultChecker& checker) {
  const CampaignContext ctx(config, checker);

  const std::int64_t trials = config.trials;
  const std::int64_t block = campaign_trials_per_block(trials);
  const std::int64_t blocks = (trials + block - 1) / block;
  std::vector<CampaignStats> partial(static_cast<std::size_t>(blocks));

  // With several blocks, trial-level fan-out keeps all workers busy and
  // each faulty GEMM runs serially to avoid nested fan-out. A single
  // block (trials == 1) executes sequentially, so there the lone GEMM
  // parallelizes instead. Either way the stats are bit-identical.
  const bool parallel_gemm = blocks == 1;
  parallel_for(0, blocks, [&](std::int64_t blk) {
    CampaignStats& local = partial[static_cast<std::size_t>(blk)];
    const std::int64_t lo = blk * block;
    const std::int64_t hi = std::min(trials, lo + block);
    for (std::int64_t t = lo; t < hi; ++t)
      run_trial(ctx, t, local, parallel_gemm);
  });

  CampaignStats stats;
  for (const auto& p : partial) stats.merge(p);
  return stats;
}

CampaignStats run_campaign_serial(const CampaignConfig& config,
                                  const FaultChecker& checker) {
  const CampaignContext ctx(config, checker);
  CampaignStats stats;
  // Fully serial (including each GEMM): this is the single-threaded
  // baseline the throughput bench compares against.
  for (std::int64_t t = 0; t < config.trials; ++t)
    run_trial(ctx, t, stats, /*parallel_gemm=*/false);
  return stats;
}

std::vector<CampaignSweepResult> run_campaign_sweep(
    const CampaignConfig& base, const std::vector<CampaignSweepCase>& cases,
    const FaultChecker& checker) {
  AIFT_CHECK(!cases.empty());
  std::vector<CampaignSweepResult> results;
  results.reserve(cases.size());
  // Cases run in order, each internally parallel: trial fan-out already
  // saturates the pool, and sequential cases keep results in case order
  // with bounded memory.
  for (const auto& sweep_case : cases) {
    CampaignSweepResult r;
    r.config = base;
    r.config.shape = sweep_case.shape;
    r.config.tile = sweep_case.tile;
    r.stats = run_campaign(r.config, checker);
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace aift
