// amsterdam-offline: a closed loop of B=2 batches of NoScope Amsterdam(8)
// (8 frames per request) through BatchExecutor::run, each guided batch
// paired with the same batch on an unprotected session. Serving is
// bypassed; GEMM and activation carry the time, and the plan mixes schemes
// (five thread-level layers, one global), so the global layer's deferred
// check drains behind the next layer's GEMM.

#include <memory>

#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "harness.hpp"
#include "nn/zoo/zoo.hpp"

namespace aift::e2e {

Result amsterdam_offline(const RunConfig& cfg, Tracer& tracer) {
  constexpr std::int64_t kBatch = 2;
  Result result;
  result.workload = "amsterdam-offline";
  const Model model = zoo::noscope_amsterdam(8);
  const GemmShape& first = model.layers().front().gemm;
  const std::vector<Matrix<half_t>> pool =
      make_pool(derive_seed(cfg.seed, 1), cfg.smoke ? 2 : 4, first.m, first.k);

  std::unique_ptr<InferenceSession> guided, none;
  std::vector<SetupTiming> setups;
  for (const auto start = Clock::now();
       more_setups(cfg, setups.size(), start);) {
    guided.reset();
    none.reset();
    double hits = 0.0;
    const auto t0 = Clock::now();
    InferencePlan guided_plan =
        compile(model, ProtectionPolicy::intensity_guided, hits);
    InferencePlan none_plan = compile(model, ProtectionPolicy::none, hits);
    const auto t1 = Clock::now();
    guided = std::make_unique<InferenceSession>(std::move(guided_plan));
    none = std::make_unique<InferenceSession>(std::move(none_plan));
    const auto t2 = Clock::now();
    (void)guided->run(pool.front());
    (void)none->run(pool.front());
    const auto t3 = Clock::now();
    setups.push_back(setup_timing(tracer, t0, t1, t2, t3, hits / 2));
  }
  const double setup_s = report_setup(setups, result);
  const auto guided_refs = references(*guided, pool, result);
  const auto none_refs = references(*none, pool, result);

  Tracer off(false);
  PairSamples warm, pairs;
  run_pairs(*guided, *none, pool, guided_refs, none_refs, kBatch, 0.0, 1, off,
            warm, result);
  const ScratchStats scratch_before = scratch_stats();
  run_pairs(*guided, *none, pool, guided_refs, none_refs, kBatch, cfg.seconds,
            4, tracer, pairs, result);
  const ScratchStats scratch_after = scratch_stats();

  double busy_ms = 0.0;
  for (const double ms : pairs.guided_ms) busy_ms += ms;
  result.attempted = pairs.requests;
  report_e2e(result, median(pairs.guided_ms),
             percentile(pairs.guided_ms, 0.9),
             static_cast<double>(pairs.requests) / (busy_ms / 1e3),
             median(pairs.ratio), setup_s);
  result.note("latency_samples", static_cast<double>(pairs.guided_ms.size()));
  result.note("pair_none_ms_p50", median(pairs.none_ms), "ms");

  if (cfg.trace) {
    result.layer("executor.execute_ms_p50", median(pairs.guided_ms), "ms");
    result.layer("executor.execute_ms_p99", percentile(pairs.guided_ms, 0.99),
                 "ms");
    result.layer("common.scratch_misses_steady",
                 static_cast<double>(scratch_after.misses -
                                     scratch_before.misses),
                 "count");
    result.layer("trace.overhead_pct", trace_overhead_pct(pairs.guided_ms),
                 "%");
    replay_layers(*guided, pool, guided_refs, kBatch, replay_budget_s(cfg),
                  tracer, result);
  }
  return result;
}

}  // namespace aift::e2e
