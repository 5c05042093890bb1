// A traffic-facing protected-inference frontend with SLO-aware
// scheduling, end to end:
//
//   1. compile two models once and register them as shards of one
//      ServingEngine (multi-session sharding: each model gets its own
//      InferenceSession + ContinuousBatch behind a shared request queue),
//      both under the EDF scheduler with a per-model default SLO;
//   2. fire a burst of interleaved single requests from client threads in
//      two priority classes — interactive traffic carries a tight
//      explicit deadline, bulk traffic a loose one; no caller ever
//      assembles a batch;
//   3. the engine's scheduler keeps each queue earliest-deadline-first
//      (priority class breaking ties), dispatches when a batch fills or
//      when the most urgent request reaches deadline - dispatch_margin,
//      and would shed a request whose deadline already passed (its future
//      resolves to a typed DeadlineExceeded) instead of serving it late;
//   4. one request carries an injected soft error: its future still
//      resolves to the exact standalone result — detected, re-executed,
//      recovered — while its batch siblings are untouched;
//   5. print the engine's serving stats: the deadline hit/miss/shed
//      breakdown and latency aggregates per priority class, plus the
//      batch-size histogram and queue depth high-water mark.
//
// Build & run:  ./build/serving_frontend

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"

using namespace aift;

int main() {
  const GemmCostModel cost(devices::t4());
  const ProtectedPipeline pipe(cost);

  // 1. Two shards, different latency profiles, both EDF-scheduled: the
  // bottom MLP batches up to 16 under a loose default SLO, the top MLP is
  // latency-sensitive — smaller batches, tighter default SLO, and a
  // dispatch margin that reserves execution time out of the budget.
  // (The SLOs here are generous so the walkthrough is deterministic; the
  // SLO-attainment sweep in bench_serving_queue overloads the engine on
  // purpose and reports hits, misses and sheds per class.)
  ServingEngine engine;  // threaded batcher
  BatchPolicy bottom_policy;
  bottom_policy.max_batch = 16;
  bottom_policy.default_slo = std::chrono::milliseconds(4000);
  bottom_policy.dispatch_margin = std::chrono::milliseconds(100);
  engine.add_model("dlrm-bottom",
                   pipe.plan(zoo::dlrm_mlp_bottom(1),
                             ProtectionPolicy::intensity_guided),
                   bottom_policy);
  BatchPolicy top_policy;
  top_policy.max_batch = 8;
  top_policy.default_slo = std::chrono::milliseconds(1000);
  top_policy.dispatch_margin = std::chrono::milliseconds(50);
  engine.add_model("dlrm-top",
                   pipe.plan(zoo::dlrm_mlp_top(1),
                             ProtectionPolicy::intensity_guided),
                   top_policy);
  std::printf("Serving %zu models:", engine.models().size());
  for (const auto& name : engine.models()) std::printf(" %s", name.c_str());
  std::printf("\n");

  // 2-3. Two client threads, each submitting interleaved traffic in two
  // priority classes: interactive requests to the top MLP (tight explicit
  // deadline), bulk requests to the bottom MLP (loose deadline). Request
  // 7 of the bulk stream carries a soft error.
  constexpr int kPerClient = 24;
  const auto& bottom = engine.session("dlrm-bottom");
  const auto& top = engine.session("dlrm-top");
  RequestOptions interactive;
  interactive.priority = Priority::interactive;
  interactive.deadline = std::chrono::milliseconds(2000);
  RequestOptions bulk;
  bulk.priority = Priority::bulk;
  bulk.deadline = std::chrono::milliseconds(8000);
  std::vector<std::future<ServedResult>> bottom_futs(2 * kPerClient);
  std::vector<std::future<ServedResult>> top_futs(2 * kPerClient);
  auto client = [&](int id) {
    for (int r = 0; r < kPerClient; ++r) {
      const int slot = id * kPerClient + r;
      std::vector<SessionFault> faults;
      if (slot == 7) {
        faults = {SessionFault{1, FaultSpec{0, 3, -1, 0x20000000u}, 0}};
      }
      bottom_futs[static_cast<std::size_t>(slot)] = engine.submit(
          "dlrm-bottom", bottom.make_input(static_cast<std::uint64_t>(slot)),
          faults, bulk);
      top_futs[static_cast<std::size_t>(slot)] = engine.submit(
          "dlrm-top", top.make_input(static_cast<std::uint64_t>(100 + slot)),
          {}, interactive);
    }
  };
  std::thread c0(client, 0), c1(client, 1);
  c0.join();
  c1.join();
  engine.drain();

  // 4. Every future carries the exact standalone result — spot-check the
  // faulted one and one sibling per shard.
  const ServedResult faulted = bottom_futs[7].get();
  std::printf(
      "\nFaulted %s request: detected %d time(s), %d retr%s, %s "
      "(served in a batch of %lld; queued %.0fus, executed %.0fus, "
      "deadline %s)\n",
      priority_name(faulted.priority), faulted.session.total_detections(),
      faulted.session.total_retries(),
      faulted.session.total_retries() == 1 ? "y" : "ies",
      faulted.session.recovered() ? "recovered" : "UNRECOVERED",
      static_cast<long long>(faulted.batch_size), faulted.queue_us,
      faulted.execute_us, faulted.deadline_met ? "met" : "MISSED");
  bool identical = true;
  {
    SessionRunOptions opts;
    opts.faults = {SessionFault{1, FaultSpec{0, 3, -1, 0x20000000u}, 0}};
    identical = identical &&
                faulted.session.output ==
                    bottom.run(bottom.make_input(7), opts).output;
    identical = identical && top_futs[11].get().session.output ==
                                 top.run(top.make_input(111)).output;
  }
  std::printf("Spot-checked futures are %s their standalone runs.\n",
              identical ? "bit-identical to" : "DIVERGED FROM");
  if (!identical || !faulted.session.recovered()) return 1;

  // 5. Engine stats: the per-class deadline ledger, then the engine-wide
  // batching picture.
  const ServingStats stats = engine.stats();
  std::printf("\n%-12s %10s %10s %6s %6s %6s %12s\n", "class", "submitted",
              "completed", "hit", "miss", "shed", "mean lat");
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    const PriorityClassStats& cls = stats.by_priority[c];
    if (cls.submitted == 0) continue;
    std::printf("%-12s %10lld %10lld %6lld %6lld %6lld %9.0fus\n",
                priority_name(static_cast<Priority>(c)),
                static_cast<long long>(cls.submitted),
                static_cast<long long>(cls.completed),
                static_cast<long long>(cls.deadline_hits),
                static_cast<long long>(cls.deadline_misses),
                static_cast<long long>(cls.shed), cls.mean_latency_us());
  }
  std::printf("\n%lld requests served in %lld batches "
              "(mean batch %.2f, peak queue depth %lld, "
              "SLO attainment %.1f%%)\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.batches), stats.mean_batch_size(),
              static_cast<long long>(stats.max_queue_depth),
              100.0 * stats.deadline_attainment());
  std::printf("Batch-size histogram:");
  for (std::size_t b = 1; b < stats.batch_size_hist.size(); ++b) {
    if (stats.batch_size_hist[b] > 0) {
      std::printf(" %zux%lld", b,
                  static_cast<long long>(stats.batch_size_hist[b]));
    }
  }
  std::printf("\nLatency: queue mean %.0fus max %.0fus, "
              "execute mean %.0fus max %.0fus\n",
              stats.mean_queue_us(), stats.queue_us_max,
              stats.mean_execute_us(), stats.execute_us_max);

  // Post-drain (quiescent) the ledger reconciles: nothing vanished.
  if (stats.submitted !=
      stats.completed + stats.failed + stats.shed + stats.queue_depth) {
    std::printf("STATS LEDGER DOES NOT RECONCILE\n");
    return 1;
  }
  engine.shutdown();
  return 0;
}
