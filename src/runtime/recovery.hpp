#pragma once
// Detection-and-recovery analysis (paper §2.3: "detecting a catastrophic
// event is often more important than quickly proceeding after it").
//
// The paper's schemes *detect*; what a deployment does next is a policy.
// This module models the canonical one — discard-and-re-execute the faulty
// layer (soft errors are transient, so a retry is clean with overwhelming
// probability) — and quantifies its expected latency under a per-layer
// fault probability, so users can reason about the full fault-tolerance
// cost, not just the error-free overhead.

#include "fault/fault.hpp"
#include "runtime/session.hpp"

namespace aift {

struct RecoveryAnalysis {
  double fault_probability_per_layer = 0.0;
  /// Error-free protected latency (sum of per-layer T_r).
  double protected_us = 0.0;
  /// Expected extra latency from re-executing flagged layers (each retry
  /// also runs protected, and may itself be retried).
  double expected_retry_us = 0.0;
  /// Expected end-to-end latency under the fault rate.
  [[nodiscard]] double expected_total_us() const {
    return protected_us + expected_retry_us;
  }
  /// Expected retries per inference request.
  double expected_retries = 0.0;
};

/// Expected-latency analysis of detect-and-re-execute on `plan` when each
/// layer execution independently suffers a detectable fault with
/// probability p (p < 1). A flagged layer repeats until clean; retries of
/// a layer cost its protected time T_r.
[[nodiscard]] RecoveryAnalysis analyze_recovery(
    const InferencePlan& plan, double fault_probability);

/// Monte-Carlo cross-check of analyze_recovery's expected-retry math
/// against the real executor.
struct RecoverySimulation {
  std::int64_t trials = 0;
  std::int64_t faulted_executions = 0;  ///< faults actually injected
  std::int64_t total_retries = 0;       ///< retries the sessions performed
  std::int64_t undetected = 0;          ///< injected faults that never flagged
  double mean_retries_per_inference = 0.0;
};

/// Runs `trials` inferences on `session`; every layer execution (retries
/// included, matching the geometric model of analyze_recovery) suffers an
/// independent fault with probability `fault_probability`, drawn from
/// `fault_opts` (default: high mantissa/exponent bits, which the schemes
/// always detect). With full detection, mean_retries_per_inference
/// converges on analyze_recovery(plan, p).expected_retries as trials grow
/// (minus the truncation of the session's max_retries budget).
/// Deterministic in (session, fault_probability, trials, seed).
[[nodiscard]] RecoverySimulation simulate_recovery(
    const InferenceSession& session, double fault_probability, int trials,
    std::uint64_t seed, FaultModelOptions fault_opts = {27, 29, false, false});

}  // namespace aift
