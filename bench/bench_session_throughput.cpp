// End-to-end protected-inference throughput of the plan -> compile ->
// execute -> serve stack: plan compilation cache-cold vs cache-warm (the
// ProfileCache's payoff), clean serving throughput per policy, the batched
// serving engine's batch-size sweep, the packed-weights hot path, and
// model-level campaign trial throughput (per-trial vs batched engines).
//
// Emits JSON (the schema of BENCH_session.json at the repo root) to
// stdout, or to a file when a path is given:
//   bench_session_throughput [output.json]

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "fault/model_campaign.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/session.hpp"

namespace aift {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PlanTiming {
  std::string model;
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::int64_t profiles = 0;  // cache misses after the cold compile
  std::int64_t reuses = 0;    // cache hits during the warm compile alone
};

PlanTiming time_plan(const GemmCostModel& cost, const Model& m) {
  PlanTiming t;
  t.model = m.name();
  ProtectedPipeline pipe(cost);

  auto t0 = Clock::now();
  (void)pipe.plan(m, ProtectionPolicy::intensity_guided);
  t.cold_s = seconds_since(t0);
  const auto cold = pipe.cache_stats();
  t.profiles = cold.misses;

  t0 = Clock::now();
  (void)pipe.plan(m, ProtectionPolicy::intensity_guided);
  t.warm_s = seconds_since(t0);
  // Warm-phase reuse only: the cold compile already hits on the shared
  // baseline profiles, which would overstate the warm payoff.
  t.reuses = pipe.cache_stats().hits - cold.hits;
  return t;
}

struct ServeTiming {
  std::string policy;
  int requests = 0;
  double elapsed_s = 0.0;

  [[nodiscard]] double per_s() const { return requests / elapsed_s; }
};

ServeTiming time_serving(const ProtectedPipeline& pipe, const Model& m,
                         ProtectionPolicy policy, int requests) {
  ServeTiming t;
  t.policy = policy_name(policy);
  t.requests = requests;
  const InferenceSession session(pipe.plan(m, policy));
  const auto input = session.make_input(7);
  const auto t0 = Clock::now();
  for (int r = 0; r < requests; ++r) (void)session.run(input);
  t.elapsed_s = seconds_since(t0);
  return t;
}

struct BatchTiming {
  int batch = 0;
  int requests = 0;
  double elapsed_s = 0.0;

  [[nodiscard]] double per_s() const { return requests / elapsed_s; }
};

// Serves `requests` requests in batches of `batch` through the executor.
BatchTiming time_batched(const InferenceSession& session, int batch,
                         int requests) {
  BatchTiming t;
  t.batch = batch;
  t.requests = requests;
  const BatchExecutor executor(session);
  // Batches assembled outside the timed region, like the serial baseline's
  // pre-generated inputs: both paths time serving only.
  std::vector<std::vector<BatchRequest>> chunks;
  for (int lo = 0; lo < requests; lo += batch) {
    std::vector<BatchRequest> chunk(
        static_cast<std::size_t>(std::min(requests, lo + batch) - lo));
    for (std::size_t r = 0; r < chunk.size(); ++r) {
      chunk[r].input = session.make_input(
          static_cast<std::uint64_t>(7 + lo) + r);
    }
    chunks.push_back(std::move(chunk));
  }
  const auto t0 = Clock::now();
  for (const auto& chunk : chunks) (void)executor.run(chunk);
  t.elapsed_s = seconds_since(t0);
  return t;
}

int run(int argc, char** argv) {
  const GemmCostModel cost(devices::t4());

  // Plan compilation: ResNet-50 has many repeated shapes (deep cache
  // payoff), DLRM is the small serving case.
  std::vector<PlanTiming> plans;
  plans.push_back(time_plan(cost, zoo::resnet50(zoo::imagenet_input(1))));
  plans.push_back(time_plan(cost, zoo::dlrm_mlp_bottom(1)));

  // Serving throughput on the functional executor.
  const auto mlp = zoo::dlrm_mlp_bottom(1);
  ProtectedPipeline pipe(cost);
  constexpr int kRequests = 40;
  std::vector<ServeTiming> serving;
  serving.push_back(
      time_serving(pipe, mlp, ProtectionPolicy::none, kRequests));
  serving.push_back(
      time_serving(pipe, mlp, ProtectionPolicy::intensity_guided, kRequests));

  // Batched serving: the executor's batch-size sweep against the serial
  // B=1 baseline (sequential session.run of the same request stream).
  const InferenceSession session(
      pipe.plan(mlp, ProtectionPolicy::intensity_guided));
  constexpr int kBatchedRequests = 64;
  double serial_baseline_s = 0.0;
  {
    // Inputs pre-generated outside the timed region, exactly like the
    // batched sweep — the comparison times serving only.
    std::vector<Matrix<half_t>> inputs;
    inputs.reserve(kBatchedRequests);
    for (int r = 0; r < kBatchedRequests; ++r) {
      inputs.push_back(session.make_input(static_cast<std::uint64_t>(7 + r)));
    }
    const auto t0 = Clock::now();
    for (const auto& input : inputs) (void)session.run(input);
    serial_baseline_s = seconds_since(t0);
  }
  std::vector<BatchTiming> batched;
  for (const int b : {1, 4, 16, 64}) {
    batched.push_back(time_batched(session, b, kBatchedRequests));
  }

  // Packed-operand hot path at the serving batch size: the same B=16
  // request stream through the construction-time weight packs (the
  // default) and through a pack_weights=false session, which packs the
  // weights on every GEMM call. Outputs must agree byte for byte (the
  // identity the CTest suites pin), and the steady-state speedup is
  // asserted so the hot path cannot silently regress.
  SessionOptions unpacked_opts;
  unpacked_opts.pack_weights = false;
  const InferenceSession unpacked_session(
      pipe.plan(mlp, ProtectionPolicy::intensity_guided), unpacked_opts);
  {
    const auto input = session.make_input(7);
    const auto packed_out = session.run(input);
    const auto unpacked_out = unpacked_session.run(input);
    if (!(packed_out.output == unpacked_out.output)) {
      std::fprintf(stderr, "FATAL: packed and unpacked outputs diverged\n");
      return 1;
    }
  }
  constexpr int kPackedBatch = 16;
  // Best-of-3 steady-state rounds per path, after an untimed warm-up round
  // (first-touch scratch growth and pack construction stay outside the
  // timed region on both sides).
  const auto time_b16 = [&](const InferenceSession& s) {
    (void)time_batched(s, kPackedBatch, kBatchedRequests);  // warm-up
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const BatchTiming t = time_batched(s, kPackedBatch, kBatchedRequests);
      const double per_s = t.per_s();
      if (per_s > best) best = per_s;
    }
    return best;
  };
  const double unpacked_b16_per_s = time_b16(unpacked_session);
  const double packed_b16_per_s = time_b16(session);
  const double packed_speedup_b16 = packed_b16_per_s / unpacked_b16_per_s;
  if (packed_speedup_b16 < 1.15) {
    std::fprintf(stderr,
                 "FATAL: packed hot path speedup %.3f < 1.15 at B=%d\n",
                 packed_speedup_b16, kPackedBatch);
    return 1;
  }

  // Model-level campaign throughput: trial-parallel vs batched engines.
  ModelCampaignConfig cfg;
  cfg.trials = 64;
  cfg.fault_opts.min_bit = 20;
  cfg.fault_opts.max_bit = 29;
  const auto t0 = Clock::now();
  const auto stats = run_model_campaign(session, cfg);
  const double campaign_s = seconds_since(t0);
  if (stats.trials != cfg.trials) {
    std::fprintf(stderr, "FATAL: campaign dropped trials\n");
    return 1;
  }
  const auto t1 = Clock::now();
  const auto batched_stats = run_model_campaign_batched(session, cfg, 16);
  const double batched_campaign_s = seconds_since(t1);
  if (batched_stats != stats) {
    std::fprintf(stderr, "FATAL: batched campaign stats diverged\n");
    return 1;
  }

  std::string json = "{\n  \"bench\": \"session_throughput\",\n";
  json += "  \"workers\": " + std::to_string(parallel_workers()) + ",\n";
  json += "  \"host_hw_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json +=
      "  \"note\": \"functional-simulator throughput; regenerate on the "
      "target host before comparing\",\n";
  json += "  \"plan_compile\": [\n";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& p = plans[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"model\": \"%s\", \"cold_s\": %.4f, "
                  "\"warm_s\": %.4f, \"warm_speedup\": %.1f, "
                  "\"profiles\": %lld, \"cache_reuses\": %lld}%s\n",
                  p.model.c_str(), p.cold_s, p.warm_s,
                  p.warm_s > 0.0 ? p.cold_s / p.warm_s : 0.0,
                  static_cast<long long>(p.profiles),
                  static_cast<long long>(p.reuses),
                  i + 1 < plans.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"serving\": [\n";
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const auto& s = serving[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"policy\": \"%s\", \"requests\": %d, "
                  "\"elapsed_s\": %.4f, \"inferences_per_s\": %.1f}%s\n",
                  s.policy.c_str(), s.requests, s.elapsed_s, s.per_s(),
                  i + 1 < serving.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"batched_serving\": {\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"serial_b1_baseline\": {\"requests\": %d, "
                  "\"elapsed_s\": %.4f, \"requests_per_s\": %.1f},\n",
                  kBatchedRequests, serial_baseline_s,
                  kBatchedRequests / serial_baseline_s);
    json += buf;
  }
  json += "    \"sweep\": [\n";
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const auto& b = batched[i];
    const double serial_per_s = kBatchedRequests / serial_baseline_s;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      {\"batch\": %d, \"requests\": %d, "
                  "\"requests_per_s\": %.1f, "
                  "\"speedup_vs_serial_b1\": %.2f}%s\n",
                  b.batch, b.requests, b.per_s(), b.per_s() / serial_per_s,
                  i + 1 < batched.size() ? "," : "");
    json += buf;
  }
  json += "    ]\n  },\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"packed_hot_path\": {\"batch\": %d, \"requests\": %d, "
                  "\"unpacked_requests_per_s\": %.1f, "
                  "\"packed_requests_per_s\": %.1f, "
                  "\"packed_speedup_b16\": %.2f},\n",
                  kPackedBatch, kBatchedRequests, unpacked_b16_per_s,
                  packed_b16_per_s, packed_speedup_b16);
    json += buf;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"model_campaign\": {\"trials\": %lld, \"elapsed_s\": "
                "%.4f, \"trials_per_s\": %.1f, \"batched_elapsed_s\": %.4f, "
                "\"batched_trials_per_s\": %.1f, \"detected\": %lld, "
                "\"recovered\": %lld}\n}\n",
                static_cast<long long>(stats.trials), campaign_s,
                stats.trials / campaign_s, batched_campaign_s,
                stats.trials / batched_campaign_s,
                static_cast<long long>(stats.detected),
                static_cast<long long>(stats.recovered));
  json += buf;

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace aift

int main(int argc, char** argv) { return aift::run(argc, argv); }
