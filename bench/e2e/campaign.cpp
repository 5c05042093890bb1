// fault-campaign: DLRM MLP-Top(1) under run_model_campaign_batched (16
// rows). One campaign request is 64 trials on the intensity-guided plan
// followed by 64 on the global-ABFT plan, with default FaultModelOptions;
// requests repeat with fresh trial seeds until the time is up, and give the
// throughput. The fault ledgers come from a fixed, seed-determined 2,000
// trials per plan run before the timed phase. This is the recovery path
// (detect -> rewind -> flush -> re-execute) rather than the clean one; on
// the global plan deferred-check rewinds run too.

#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "fault/model_campaign.hpp"
#include "harness.hpp"
#include "nn/zoo/zoo.hpp"

namespace aift::e2e {
namespace {

constexpr std::int64_t kRows = 16;
constexpr int kTrialsPerPlan = 64;

struct Ledger {
  ModelCampaignStats stats;
  double busy_ms = 0.0;
};

// Checks one campaign's ledger; returns the trials that count as failed.
std::int64_t check_ledger(const ModelCampaignStats& s, const std::string& plan,
                          Result& result) {
  if (s.detected + s.masked + s.sdc != s.trials ||
      s.recovered + s.unrecovered + s.detected_corrupted != s.detected) {
    result.error(plan + ": campaign ledger does not reconcile");
  }
  if (s.detected_corrupted != 0) {
    result.error(plan + ": a detected trial served a corrupted output");
  }
  return s.unrecovered + s.detected_corrupted;
}

struct CampaignPhase {
  std::vector<double> request_ms;
  Ledger guided, global;
  std::int64_t failed = 0;
};

void run_campaign(const InferenceSession& guided,
                  const InferenceSession& global, std::uint64_t seed,
                  std::uint64_t input_seed, double seconds, Tracer& tracer,
                  CampaignPhase& out, Result& result) {
  const auto start = Clock::now();
  for (std::uint64_t k = 0; out.request_ms.size() < 3 ||
                            ms_between(start, Clock::now()) < seconds * 1e3;
       ++k) {
    ModelCampaignConfig config;
    config.trials = kTrialsPerPlan;
    config.seed = derive_seed(seed, k);
    config.input_seed = input_seed;
    const auto t0 = Clock::now();
    const ModelCampaignStats g =
        run_model_campaign_batched(guided, config, kRows);
    const auto t1 = Clock::now();
    const ModelCampaignStats b =
        run_model_campaign_batched(global, config, kRows);
    const auto t2 = Clock::now();
    if (k % 2 == 1) {  // odd requests only: see trace_overhead_pct
      SpanGroup spans;
      spans.add("campaign.guided", t0, t1);
      spans.add("campaign.global", t1, t2);
      spans.emit(tracer, "campaign.request", t0, t2);
    }
    out.request_ms.push_back(ms_between(t0, t2));
    out.guided.busy_ms += ms_between(t0, t1);
    out.global.busy_ms += ms_between(t1, t2);
    out.guided.stats.merge(g);
    out.global.stats.merge(b);
    out.failed += check_ledger(g, "guided", result) +
                  check_ledger(b, "global", result);
  }
}

}  // namespace

Result fault_campaign(const RunConfig& cfg, Tracer& tracer) {
  Result result;
  result.workload = "fault-campaign";
  const Model model = zoo::dlrm_mlp_top(1);
  const GemmShape& first = model.layers().front().gemm;
  const std::vector<Matrix<half_t>> pool = make_pool(
      derive_seed(cfg.seed, 1), cfg.smoke ? 16 : 64, first.m, first.k);
  const std::uint64_t input_seed = derive_seed(cfg.seed, 2);

  std::unique_ptr<InferenceSession> guided, global, none;
  std::vector<SetupTiming> setups;
  for (const auto start = Clock::now();
       more_setups(cfg, setups.size(), start);) {
    guided.reset();
    global.reset();
    none.reset();
    double hits = 0.0;
    const auto t0 = Clock::now();
    InferencePlan g = compile(model, ProtectionPolicy::intensity_guided, hits);
    InferencePlan b = compile(model, ProtectionPolicy::global_abft, hits);
    InferencePlan n = compile(model, ProtectionPolicy::none, hits);
    const auto t1 = Clock::now();
    guided = std::make_unique<InferenceSession>(std::move(g));
    global = std::make_unique<InferenceSession>(std::move(b));
    none = std::make_unique<InferenceSession>(std::move(n));
    const auto t2 = Clock::now();
    ModelCampaignConfig warm;
    warm.trials = kTrialsPerPlan;
    warm.input_seed = input_seed;
    (void)run_model_campaign_batched(*guided, warm, kRows);
    (void)run_model_campaign_batched(*global, warm, kRows);
    const auto batch = pool_batch(pool, kRows, 0);
    (void)BatchExecutor(*guided).run(batch);
    (void)BatchExecutor(*none).run(batch);
    const auto t3 = Clock::now();
    setups.push_back(setup_timing(tracer, t0, t1, t2, t3, hits / 3));
  }
  const double setup_s = report_setup(setups, result);
  const auto guided_refs = references(*guided, pool, result);
  const auto none_refs = references(*none, pool, result);

  // A fixed number of trials, set by the seed: the batched engine must
  // reproduce the per-trial engine exactly, and these ledgers are the fault
  // metrics, so they do not grow with host speed.
  ModelCampaignStats fixed[2];
  {
    ModelCampaignConfig config;
    config.trials = cfg.smoke ? 200 : 2000;
    config.seed = derive_seed(cfg.seed, 3);
    config.input_seed = input_seed;
    const InferenceSession* sessions[2] = {guided.get(), global.get()};
    for (int p = 0; p < 2; ++p) {
      fixed[p] = run_model_campaign_batched(*sessions[p], config, kRows);
      if (!(fixed[p] == run_model_campaign(*sessions[p], config))) {
        result.error("batched campaign differs from run_model_campaign");
      }
      result.failed += check_ledger(fixed[p], "fixed", result);
    }
  }

  CampaignPhase phase;
  const ScratchStats scratch_before = scratch_stats();
  run_campaign(*guided, *global, derive_seed(cfg.seed, 4), input_seed,
               cfg.seconds * 0.8, tracer, phase, result);
  const ScratchStats scratch_after = scratch_stats();

  Tracer off(false);
  PairSamples pairs;
  run_pairs(*guided, *none, pool, guided_refs, none_refs, kRows,
            cfg.seconds * 0.2, 5, off, pairs, result);

  const ModelCampaignStats& g = phase.guided.stats;
  const ModelCampaignStats& b = phase.global.stats;
  const double busy_s = (phase.guided.busy_ms + phase.global.busy_ms) / 1e3;
  result.attempted = g.trials + b.trials;
  result.failed += phase.failed;
  report_e2e(result, median(phase.request_ms),
             percentile(phase.request_ms, 0.9),
             static_cast<double>(result.attempted) / busy_s,
             median(pairs.ratio), setup_s);
  result.note("latency_samples", static_cast<double>(phase.request_ms.size()));
  result.note("pairs", static_cast<double>(pairs.ratio.size()));

  if (cfg.trace) {
    const auto per_trial = [](double ms, const ModelCampaignStats& s) {
      return ms * 1e3 / static_cast<double>(s.trials);
    };
    const auto share = [](std::int64_t n, const ModelCampaignStats& s) {
      return static_cast<double>(n) / static_cast<double>(s.trials);
    };
    result.layer("fault.trial_us", per_trial(phase.guided.busy_ms, g), "us");
    result.layer("fault.global_trial_us", per_trial(phase.global.busy_ms, b),
                 "us");
    // Ledgers of the fixed-trial campaigns, both plans together.
    const ModelCampaignStats& fg = fixed[0];
    const ModelCampaignStats& fb = fixed[1];
    const std::pair<const char*, std::int64_t ModelCampaignStats::*> counts[] =
        {{"fault.detected", &ModelCampaignStats::detected},
         {"fault.recovered", &ModelCampaignStats::recovered},
         {"fault.masked", &ModelCampaignStats::masked},
         {"fault.sdc", &ModelCampaignStats::sdc},
         {"fault.unrecovered", &ModelCampaignStats::unrecovered},
         {"fault.detected_corrupted", &ModelCampaignStats::detected_corrupted}};
    for (const auto& [name, field] : counts) {
      result.layer(name, static_cast<double>(fg.*field + fb.*field), "count");
    }
    result.layer("fault.coverage", fg.effective_coverage(), "ratio");
    result.layer("fault.global_coverage", fb.effective_coverage(), "ratio");
    result.layer("fault.sdc_frac", share(fg.sdc, fg), "ratio");
    result.layer("fault.global_sdc_frac", share(fb.sdc, fb), "ratio");
    result.layer("common.scratch_misses_steady",
                 static_cast<double>(scratch_after.misses -
                                     scratch_before.misses),
                 "count");
    result.layer("trace.overhead_pct", trace_overhead_pct(phase.request_ms),
                 "%");
    replay_layers(*guided, pool, guided_refs, kRows, replay_budget_s(cfg),
                  tracer, result);
  }
  return result;
}

}  // namespace aift::e2e
