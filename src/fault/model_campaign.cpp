#include "fault/model_campaign.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "runtime/executor.hpp"

namespace aift {
namespace {

// Inputs shared by every trial: the fault-free per-layer activations and
// reference output, computed once per campaign. Trials re-execute only
// from their faulted layer — the clean prefix is bit-identical to these
// cached activations, so skipping it halves the average trial cost on
// deep models without changing any outcome.
struct ModelCampaignContext {
  const InferenceSession& session;
  const ModelCampaignConfig& config;
  std::vector<Matrix<half_t>> layer_inputs;
  Matrix<half_t> clean_output;

  static const ModelCampaignConfig& validated(const ModelCampaignConfig& cfg) {
    AIFT_CHECK(cfg.trials > 0);
    return cfg;
  }

  ModelCampaignContext(const InferenceSession& s,
                       const ModelCampaignConfig& cfg)
      : session(s),
        config(validated(cfg)),
        layer_inputs(s.layer_inputs(s.make_input(cfg.input_seed))) {
    // Parallel and serial GEMMs are bit-identical, so the reference run
    // may use the pool even though trials later run layers serially.
    clean_output =
        s.run_from(s.num_layers() - 1, layer_inputs.back()).output;
  }
};

// The fault site of trial t, reproduced from its private RNG stream.
struct TrialSite {
  std::size_t layer = 0;
  FaultSpec fault;
};

TrialSite trial_site(const ModelCampaignContext& ctx, std::int64_t t) {
  Rng rng(campaign_trial_seed(ctx.config.seed, t));
  TrialSite site;
  site.layer = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(ctx.session.num_layers()) - 1));
  const auto& entry = ctx.session.plan().entries[site.layer];
  site.fault = random_fault(rng, entry.layer.gemm, entry.exec_tile(),
                            ctx.config.fault_opts);
  return site;
}

void run_trial(const ModelCampaignContext& ctx, std::int64_t t,
               ModelCampaignStats& stats, bool parallel_gemm) {
  const TrialSite site = trial_site(ctx, t);

  SessionRunOptions run_opts;
  run_opts.parallel = parallel_gemm;
  run_opts.faults = {SessionFault{site.layer, site.fault, /*execution=*/0}};
  // Start at the faulted layer: everything before it is fault-free and
  // bit-identical to the cached clean activations.
  const SessionResult result = ctx.session.run_from(
      site.layer, ctx.layer_inputs[site.layer], run_opts);
  classify_model_trial(stats, site.layer, result, ctx.clean_output);
}

ModelCampaignStats zeroed_stats(const InferenceSession& session) {
  ModelCampaignStats stats;
  stats.faults_per_layer.assign(session.num_layers(), 0);
  stats.detections_per_layer.assign(session.num_layers(), 0);
  return stats;
}

}  // namespace

double ModelCampaignStats::effective_coverage() const {
  const std::int64_t effective = trials - masked;
  if (effective <= 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(effective);
}

ModelCampaignStats& ModelCampaignStats::merge(const ModelCampaignStats& other) {
  trials += other.trials;
  detected += other.detected;
  recovered += other.recovered;
  unrecovered += other.unrecovered;
  masked += other.masked;
  sdc += other.sdc;
  detected_corrupted += other.detected_corrupted;
  // The per-layer vectors may have different lengths — and, in a malformed
  // partial, lengths that differ from each other — so each one is resized
  // and accumulated against its own counterpart only.
  if (faults_per_layer.size() < other.faults_per_layer.size()) {
    faults_per_layer.resize(other.faults_per_layer.size(), 0);
  }
  if (detections_per_layer.size() < other.detections_per_layer.size()) {
    detections_per_layer.resize(other.detections_per_layer.size(), 0);
  }
  for (std::size_t i = 0; i < other.faults_per_layer.size(); ++i) {
    faults_per_layer[i] += other.faults_per_layer[i];
  }
  for (std::size_t i = 0; i < other.detections_per_layer.size(); ++i) {
    detections_per_layer[i] += other.detections_per_layer[i];
  }
  return *this;
}

void classify_model_trial(ModelCampaignStats& stats, std::size_t layer,
                          const SessionResult& result,
                          const Matrix<half_t>& clean_output) {
  AIFT_CHECK_MSG(!result.layers.empty(),
                 "cannot classify a trial with no layer traces");
  if (stats.faults_per_layer.size() <= layer) {
    stats.faults_per_layer.resize(layer + 1, 0);
  }
  if (stats.detections_per_layer.size() <= layer) {
    stats.detections_per_layer.resize(layer + 1, 0);
  }
  ++stats.trials;
  ++stats.faults_per_layer[layer];
  const LayerTrace& faulted_trace = result.layers.front();
  const bool flagged = faulted_trace.detections > 0;
  const bool output_clean = result.output == clean_output;
  if (flagged) {
    ++stats.detected;
    ++stats.detections_per_layer[layer];
    if (faulted_trace.unrecovered) {
      ++stats.unrecovered;
    } else if (output_clean) {
      ++stats.recovered;
    } else {
      // A passing retry reproduces the clean layer output bit for bit and
      // downstream layers are deterministic, so this class is reachable
      // only through a checker that accepted a corrupted re-execution.
      // Count it — never let a checker bug vanish from coverage tables.
      ++stats.detected_corrupted;
    }
  } else if (output_clean) {
    ++stats.masked;
  } else {
    ++stats.sdc;
  }
}

ModelCampaignStats run_model_campaign(const InferenceSession& session,
                                      const ModelCampaignConfig& config) {
  const ModelCampaignContext ctx(session, config);

  const std::int64_t trials = config.trials;
  const std::int64_t block = campaign_trials_per_block(trials);
  const std::int64_t blocks = (trials + block - 1) / block;
  std::vector<ModelCampaignStats> partial(static_cast<std::size_t>(blocks),
                                          zeroed_stats(session));

  // Trial-level fan-out with serial per-trial GEMMs, exactly like the
  // GEMM-level engine; a lone trial parallelizes its GEMMs instead.
  const bool parallel_gemm = blocks == 1;
  parallel_for(0, blocks, [&](std::int64_t blk) {
    ModelCampaignStats& local = partial[static_cast<std::size_t>(blk)];
    const std::int64_t lo = blk * block;
    const std::int64_t hi = std::min(trials, lo + block);
    for (std::int64_t t = lo; t < hi; ++t)
      run_trial(ctx, t, local, parallel_gemm);
  });

  ModelCampaignStats stats = zeroed_stats(session);
  for (const auto& p : partial) stats.merge(p);
  return stats;
}

ModelCampaignStats run_model_campaign_batched(const InferenceSession& session,
                                              const ModelCampaignConfig& config,
                                              std::int64_t batch_rows) {
  AIFT_CHECK(batch_rows > 0);
  const ModelCampaignContext ctx(session, config);

  // Group trials by faulted layer: each group shares the clean activation
  // feeding that layer (the per-trial engine's prefix skip) and the layer
  // suffix it must execute, so its trials stack into one batch.
  std::vector<std::vector<TrialSite>> by_layer(session.num_layers());
  for (std::int64_t t = 0; t < config.trials; ++t) {
    const TrialSite site = trial_site(ctx, t);
    by_layer[site.layer].push_back(site);
  }

  const BatchExecutor executor(session);
  ModelCampaignStats stats = zeroed_stats(session);
  for (std::size_t layer = 0; layer < by_layer.size(); ++layer) {
    const auto& sites = by_layer[layer];
    for (std::size_t lo = 0; lo < sites.size();
         lo += static_cast<std::size_t>(batch_rows)) {
      const std::size_t hi = std::min(
          sites.size(), lo + static_cast<std::size_t>(batch_rows));
      std::vector<BatchRequest> batch;
      batch.reserve(hi - lo);
      for (std::size_t s = lo; s < hi; ++s) {
        BatchRequest req;
        req.input = ctx.layer_inputs[layer];
        req.faults = {SessionFault{layer, sites[s].fault, /*execution=*/0}};
        batch.push_back(std::move(req));
      }
      const BatchResult result = executor.run_from(layer, batch);
      for (std::size_t s = lo; s < hi; ++s) {
        classify_model_trial(stats, layer, result.requests[s - lo],
                             ctx.clean_output);
      }
    }
  }
  return stats;
}

}  // namespace aift
