#pragma once
// Model-level fault-injection campaigns: the GEMM-level methodology of
// fault/campaign.hpp lifted to whole forward passes, the way
// permanent/transient NN fault-injection frameworks validate reliability
// end-to-end.
//
// Each trial picks a random layer of a real InferenceSession forward pass,
// injects one random single-bit fault into that layer's functional GEMM,
// lets the session's detect-and-re-execute machinery respond, and
// classifies the trial against the fault-free output:
//   detected    — the faulty layer's checker flagged the run;
//   recovered   — detected, and re-execution restored the fault-free
//                 output bit-for-bit;
//   unrecovered — detected but still flagged after the retry budget;
//   masked      — undetected and the final output still matches (the
//                 corruption rounded away or never propagated);
//   sdc         — undetected silent data corruption: the final output
//                 differs and nothing flagged.
//
// Trials draw from the same deterministic per-trial RNG streams as the
// GEMM-level engine (campaign_trial_seed), fan out over the worker pool
// with the shared block decomposition, and produce stats that are
// bit-identical at any worker count.

#include <cstdint>
#include <vector>

#include "fault/campaign.hpp"
#include "runtime/session.hpp"

namespace aift {

struct ModelCampaignConfig {
  int trials = 50;
  std::uint64_t seed = 42;
  /// The one shared inference input, generated from this seed exactly as
  /// InferenceSession::make_input does.
  std::uint64_t input_seed = 7;
  FaultModelOptions fault_opts;
};

struct ModelCampaignStats {
  std::int64_t trials = 0;
  std::int64_t detected = 0;
  std::int64_t recovered = 0;
  std::int64_t unrecovered = 0;
  std::int64_t masked = 0;
  std::int64_t sdc = 0;
  /// Detected, retried to a *passing* check within the budget — yet the
  /// final output still differs from the fault-free reference. A passing
  /// retry reproduces the clean layer output bit for bit and downstream
  /// layers are deterministic, so this must stay 0; a nonzero count means
  /// a checker accepted a corrupted re-execution (a checker bug), and
  /// counting it here keeps such trials from vanishing from coverage
  /// tables.
  std::int64_t detected_corrupted = 0;
  /// Faults injected / detections observed per layer (indexed like the
  /// session's plan entries).
  std::vector<std::int64_t> faults_per_layer;
  std::vector<std::int64_t> detections_per_layer;

  /// Detected / (trials - masked): coverage over faults that mattered.
  [[nodiscard]] double effective_coverage() const;

  /// Accumulates another (disjoint) set of trials; associative and
  /// commutative, so per-worker partials merge identically in any order.
  ModelCampaignStats& merge(const ModelCampaignStats& other);

  friend bool operator==(const ModelCampaignStats&,
                         const ModelCampaignStats&) = default;
};

/// Classifies one trial against the fault-free reference output and
/// accumulates it into `stats`. `result` must be a run started at the
/// faulted layer (result.layers.front() traces that layer), as produced by
/// InferenceSession::run_from or a BatchExecutor row. Grows the per-layer
/// vectors as needed. Exposed so the classification of every
/// (flagged, recovered, output) combination — including the
/// detected_corrupted checker-bug surface — is directly testable; the
/// campaign engines all classify through this.
void classify_model_trial(ModelCampaignStats& stats, std::size_t layer,
                          const SessionResult& result,
                          const Matrix<half_t>& clean_output);

/// Runs the campaign with trials fanned out across the worker pool.
/// Deterministic: the result depends only on (session, config), never on
/// AIFT_NUM_THREADS or scheduling.
[[nodiscard]] ModelCampaignStats run_model_campaign(
    const InferenceSession& session, const ModelCampaignConfig& config);

/// Batched campaign mode: trials become rows of a batch instead of
/// independent sessions. Trials are grouped by their faulted layer (each
/// group shares the cached clean activation feeding that layer, keeping
/// the per-trial engine's prefix skip) and marched through the BatchExecutor
/// up to `batch_rows` at a time, each layer checked right after its GEMM —
/// one stacked GEMM per layer per group instead of one GEMM per layer per
/// trial. Bit-identical ModelCampaignStats to run_model_campaign at any
/// batch_rows and any AIFT_NUM_THREADS: per-trial outcomes are unchanged
/// (the executor reproduces serial sessions bit for bit) and every stats
/// field is an order-independent sum.
[[nodiscard]] ModelCampaignStats run_model_campaign_batched(
    const InferenceSession& session, const ModelCampaignConfig& config,
    std::int64_t batch_rows = 16);

}  // namespace aift
