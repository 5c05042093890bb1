// Batched protected serving, end to end (the plan -> compile -> execute ->
// serve split):
//
//   1. compile a model once into an InferencePlan (profile-once, §5.3);
//   2. persist the plan with save_plan and reload it with load_plan — how
//      a serving process starts without re-profiling;
//   3. instantiate an InferenceSession from the loaded plan and march a
//      whole batch through the BatchExecutor: one stacked GEMM per layer,
//      each layer's global-ABFT checks right after its GEMM;
//   4. inject a soft error into one batch row and watch its check flag and
//      re-execute only that row — siblings are never re-executed;
//   5. compare batched against sequential serving throughput.
//
// Build & run:  ./build/batched_serving

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/plan_io.hpp"

using namespace aift;

int main() {
  const GemmCostModel cost(devices::t4());
  const ProtectedPipeline pipe(cost);

  // 1-2. Compile once, persist, reload: the artifact is versioned and
  // fingerprinted, so a mismatched or corrupted file is rejected instead
  // of silently served from. Global ABFT everywhere — the scheme whose
  // output-checksum reduction runs as a separate pass over each layer's
  // output (on this bandwidth-bound MLP, intensity-guided selection would
  // pick thread-level ABFT, whose check is fused into the kernel).
  const auto model = zoo::dlrm_mlp_bottom(1);
  const auto plan = pipe.plan(model, ProtectionPolicy::global_abft);
  const std::string path = "batched_serving_example.plan";
  save_plan(plan, path);
  const auto loaded = load_plan(path);
  std::remove(path.c_str());
  std::printf("Compiled %s (%zu layers), persisted %zu bytes, reloaded.\n",
              plan.model_name.c_str(), plan.entries.size(),
              serialize_plan(plan).size());

  // 3-4. Serve a batch of 16, one row carrying a transient fault.
  const InferenceSession session(loaded);
  const BatchExecutor executor(session);
  constexpr std::size_t kBatch = 16;
  std::vector<BatchRequest> batch(kBatch);
  for (std::size_t r = 0; r < kBatch; ++r) {
    batch[r].input = session.make_input(7 + r);
  }
  batch[5].faults = {SessionFault{1, FaultSpec{0, 3, -1, 0x20000000u}, 0}};

  const auto result = executor.run(batch);
  std::printf("\nBatch of %zu: %lld checks, each right after its GEMM\n",
              kBatch, static_cast<long long>(result.stats.synchronous_checks));
  const auto& faulted = result.requests[5];
  std::printf("Row 5: layer 1 flagged %d time(s), %d retr%s, %s\n",
              faulted.layers[1].detections, faulted.total_retries(),
              faulted.total_retries() == 1 ? "y" : "ies",
              faulted.recovered() ? "recovered" : "UNRECOVERED");
  int sibling_retries = 0;
  for (std::size_t r = 0; r < kBatch; ++r) {
    if (r != 5) sibling_retries += result.requests[r].total_retries();
  }
  std::printf("Sibling rows: %d retries (the recovery never touched them)\n",
              sibling_retries);

  // Batched must equal sequential bit for bit — demonstrate, don't assume.
  bool identical = true;
  for (std::size_t r = 0; r < kBatch; ++r) {
    SessionRunOptions opts;
    opts.faults = batch[r].faults;
    if (!(session.run(batch[r].input, opts).output ==
          result.requests[r].output)) {
      identical = false;
    }
  }
  std::printf("Batched outputs %s sequential sessions.\n",
              identical ? "bit-identical to" : "DIVERGED FROM");
  if (!identical) return 1;

  // 5. Throughput: 64 requests sequentially vs in batches of 16.
  using Clock = std::chrono::steady_clock;
  constexpr int kRequests = 64;
  std::vector<BatchRequest> stream(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    stream[static_cast<std::size_t>(r)].input =
        session.make_input(static_cast<std::uint64_t>(100 + r));
  }
  auto t0 = Clock::now();
  for (const auto& req : stream) (void)session.run(req.input);
  const double serial_s = std::chrono::duration<double>(Clock::now() - t0)
                              .count();
  t0 = Clock::now();
  for (int lo = 0; lo < kRequests; lo += static_cast<int>(kBatch)) {
    const std::vector<BatchRequest> chunk(
        stream.begin() + lo,
        stream.begin() + std::min(kRequests, lo + static_cast<int>(kBatch)));
    (void)executor.run(chunk);
  }
  const double batched_s = std::chrono::duration<double>(Clock::now() - t0)
                               .count();
  std::printf("\n%d requests: %.1f/s sequential, %.1f/s batched (B=%zu) — "
              "%.2fx\n",
              kRequests, kRequests / serial_s, kRequests / batched_s, kBatch,
              serial_s / batched_s);
  return 0;
}
