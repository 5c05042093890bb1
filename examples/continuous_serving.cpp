// Continuous batching, end to end: an open batch that requests join and
// leave at layer boundaries instead of closed batches that retire as a
// unit.
//
//   1. open a ContinuousBatch over a protected session and admit a first
//      wave of requests;
//   2. admit a straggler *mid-flight* — it joins at the current layer
//      boundary while the first wave is halfway through the network;
//   3. watch rows retire independently, each in the step that runs its
//      own last layer;
//   4. inject a soft error into one row and watch its check flag and
//      re-execute only that row, mid-stream, without disturbing its
//      neighbours' retirement schedule;
//   5. verify every retired row is bit-identical to a standalone
//      InferenceSession::run — admission order never changes results;
//   6. do the same through ServingEngine: BatchPolicy::continuous is the
//      only knob.
//
// Build & run:  ./build/continuous_serving

#include <cstdio>
#include <future>
#include <map>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"

using namespace aift;

int main() {
  const GemmCostModel cost(devices::t4());
  const ProtectedPipeline pipe(cost);

  // Global ABFT everywhere so every layer runs an output-checksum check
  // after its GEMM (on this bandwidth-bound MLP, intensity-guided
  // selection would pick thread-level ABFT, whose check is fused into the
  // kernel).
  const auto plan =
      pipe.plan(zoo::dlrm_mlp_bottom(1), ProtectionPolicy::global_abft);
  const InferenceSession session(plan);
  const BatchExecutor executor(session);
  const std::size_t layers = plan.entries.size();
  std::printf("Compiled %s: %zu layers, global ABFT.\n\n",
              plan.model_name.c_str(), layers);

  // 1. Open batch, first wave of four rows. Row 2 carries a transient
  //    fault in layer 1 (an exponent-bit flip the checksum always flags).
  ContinuousBatch open_batch = executor.begin();
  std::map<std::int64_t, std::uint64_t> seed_of;
  for (std::uint64_t seed = 7; seed < 11; ++seed) {
    BatchRequest request;
    request.input = session.make_input(seed);
    if (seed == 9) {
      request.faults = {SessionFault{1, FaultSpec{0, 3, -1, 0x20000000u}, 0}};
    }
    seed_of[open_batch.admit(std::move(request))] = seed;
  }
  std::printf("Admitted rows 0-3 (row 2 faulted at layer 1); stepping:\n");

  // 2-4. Step the batch; admit a straggler two boundaries in. Each step
  //      advances every in-flight row one layer — the straggler's early
  //      layers run as their own GEMM group in the same steps that carry
  //      the first wave's late layers.
  std::vector<std::pair<std::int64_t, SessionResult>> retired;
  for (int boundary = 1; open_batch.in_flight() > 0; ++boundary) {
    if (boundary == 2) {
      BatchRequest straggler;
      straggler.input = session.make_input(42);
      seed_of[open_batch.admit(std::move(straggler))] = 42;
      std::printf("  boundary %d: straggler admitted mid-flight\n", boundary);
    }
    open_batch.step();
    for (auto& [row, result] : open_batch.take_finished()) {
      std::printf("  boundary %d: row %lld retired (%d retr%s)\n", boundary,
                  static_cast<long long>(row), result.total_retries(),
                  result.total_retries() == 1 ? "y" : "ies");
      retired.emplace_back(row, std::move(result));
    }
  }
  std::printf("\n%lld checks, each right after its GEMM.\n",
              static_cast<long long>(open_batch.stats().synchronous_checks));

  // 5. Every retirement is bit-identical to a standalone run, whatever
  //    joined or left around it — demonstrate, don't assume.
  bool identical = true;
  for (const auto& [row, result] : retired) {
    const std::uint64_t seed = seed_of.at(row);
    std::vector<SessionFault> faults;
    if (seed == 9) {
      faults = {SessionFault{1, FaultSpec{0, 3, -1, 0x20000000u}, 0}};
    }
    const SessionResult alone =
        session.run(session.make_input(seed), {.faults = faults});
    identical = identical && alone.output == result.output &&
                alone.total_retries() == result.total_retries();
  }
  std::printf("Continuous vs standalone sessions: %s\n\n",
              identical ? "bit-identical" : "MISMATCH");

  // 6. The serving engine's continuous mode is one policy knob: queued
  //    requests join the shard's open batch at the next layer boundary
  //    instead of waiting for the in-flight batch to retire.
  ServingEngine engine;
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.continuous = true;
  engine.add_model("dlrm", plan, policy);
  std::vector<std::future<ServedResult>> futures;
  for (std::uint64_t seed = 7; seed < 15; ++seed) {
    futures.push_back(engine.submit("dlrm", session.make_input(seed)));
  }
  for (auto& f : futures) (void)f.get();
  const ServingStats serving = engine.stats();
  std::printf("ServingEngine (continuous): %lld requests over %lld "
              "admission wave(s), mean wave %.1f rows\n",
              static_cast<long long>(serving.completed),
              static_cast<long long>(serving.batches),
              serving.mean_batch_size());
  engine.shutdown();
  return identical ? 0 : 1;
}
