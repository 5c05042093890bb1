// Scratch-arena tests: growth/reuse semantics of the thread-local buffers,
// the hit/miss ledger, and the allocation-count regression guard — a warm
// serving round performs zero scratch allocations, so the packed hot
// path's "no allocator traffic in steady state" property is a pinned CTest
// fact rather than a hope.

#include "common/scratch.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gemm/functional.hpp"
#include "nn/model.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"

namespace aift {
namespace {

TEST(ScratchTest, GrowsOnMissReusesOnHit) {
  // Prime the slot so earlier activity in this process can't skew the
  // ledger deltas below.
  (void)scratch_floats(ScratchSlot::gemm_accumulator, 64);
  reset_scratch_stats();

  float* small = scratch_floats(ScratchSlot::gemm_accumulator, 32);
  EXPECT_EQ(scratch_stats().misses, 0);  // capacity 64 already covers 32
  EXPECT_EQ(scratch_stats().hits, 1);
  EXPECT_EQ(small, scratch_floats(ScratchSlot::gemm_accumulator, 64));

  (void)scratch_floats(ScratchSlot::gemm_accumulator, 1024);  // must grow
  const ScratchStats after = scratch_stats();
  EXPECT_EQ(after.misses, 1);
  EXPECT_EQ(after.hits, 2);
  EXPECT_EQ(after.requests(), 3);

  // The grown buffer now serves every request up to its high-water mark.
  (void)scratch_floats(ScratchSlot::gemm_accumulator, 1024);
  EXPECT_EQ(scratch_stats().misses, 1);
}

TEST(ScratchTest, SlotsAreIndependentBuffers) {
  float* acc = scratch_floats(ScratchSlot::gemm_accumulator, 128);
  float* a = scratch_floats(ScratchSlot::gemm_staged_a, 128);
  EXPECT_NE(acc, a);
  // A write through one slot never shows through another.
  acc[0] = 1.0f;
  a[0] = 2.0f;
  EXPECT_EQ(acc[0], 1.0f);
  EXPECT_EQ(a[0], 2.0f);
}

TEST(ScratchTest, RepeatPackedGemmAllocatesNothing) {
  // Same shape twice on one thread through the packed hot path: the
  // second call must be served entirely from the warm buffers.
  const GemmShape shape{33, 65, 40};
  const TileConfig tile{32, 64, 32, 16, 32, 2};
  Rng rng(3);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const PackedOperand packed = pack_operand(b, tile);
  Matrix<half_t> c(shape.m, shape.n);
  FunctionalOptions opts;
  opts.parallel = false;
  functional_gemm(a, packed, c, tile, opts);  // warm-up, may allocate
  reset_scratch_stats();
  functional_gemm(a, packed, c, tile, opts);
  const ScratchStats stats = scratch_stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_GT(stats.hits, 0);
}

TEST(ScratchTest, SteadyStateServingRoundAllocatesNothing) {
  // The regression guard of the packed hot path: after one warm-up round,
  // an identical batched serving round — every layer GEMM, every retry,
  // both verification modes — performs zero scratch allocations. Serial
  // execution keeps the block->thread assignment deterministic, so "warm"
  // is well defined (a parallel round could lazily hand a block to a
  // still-cold worker without that being a regression).
  GemmCostModel cost{devices::t4()};
  ProtectedPipeline pipe{cost};
  Model model = []() {
    ModelBuilder b("TinyMLP", /*batch=*/4, /*in_features=*/24);
    b.linear("fc1", 32);
    b.linear("fc2", 24);
    b.linear("fc3", 12);
    return std::move(b).build();
  }();
  const InferenceSession session(
      pipe.plan(model, ProtectionPolicy::global_abft));
  const BatchExecutor executor(session);

  std::vector<BatchRequest> batch(4);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = session.make_input(300 + r);
  }
  // A faulty request exercises the retry GEMM in the steady round too.
  batch[1].faults = {SessionFault{1, FaultSpec{0, 0, -1, 0x20000000u}, 0}};

  for (const bool defer : {false, true}) {
    BatchOptions opts;
    opts.parallel = false;
    opts.defer_verification = defer;
    (void)executor.run(batch, opts);  // warm-up round
    reset_scratch_stats();
    (void)executor.run(batch, opts);  // steady-state round
    const ScratchStats stats = scratch_stats();
    EXPECT_EQ(stats.misses, 0) << (defer ? "deferred" : "synchronous");
    EXPECT_GT(stats.hits, 0) << (defer ? "deferred" : "synchronous");
  }
}

TEST(ScratchTest, SteadyStateThreadCheckRoundAllocatesNothing) {
  // The same guard over the thread-level check: its decoded A and C and
  // its checksum work buffers come from the check slots, so after one
  // warm-up round a synchronous serial round on an intensity-guided plan
  // — thread-level checks on every layer, one of them flagging and
  // re-executing — performs zero scratch allocations.
  GemmCostModel cost{devices::t4()};
  ProtectedPipeline pipe{cost};
  const InferenceSession session(
      pipe.plan(zoo::dlrm_mlp_bottom(1), ProtectionPolicy::intensity_guided));
  std::size_t thread_layer = session.num_layers();
  for (std::size_t l = 0; l < session.num_layers(); ++l) {
    const Scheme scheme = session.plan().entries[l].scheme();
    if (scheme == Scheme::thread_one_sided ||
        scheme == Scheme::thread_two_sided) {
      thread_layer = l;
      break;
    }
  }
  ASSERT_LT(thread_layer, session.num_layers())
      << "the guided plan has no thread-level layer";
  const BatchExecutor executor(session);

  std::vector<BatchRequest> batch(4);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = session.make_input(400 + r);
  }
  batch[2].faults = {
      SessionFault{thread_layer, FaultSpec{0, 0, -1, 0x20000000u}, 0}};

  BatchOptions opts;
  opts.parallel = false;
  opts.defer_verification = false;
  (void)executor.run(batch, opts);  // warm-up round
  reset_scratch_stats();
  const BatchResult steady = executor.run(batch, opts);
  const ScratchStats stats = scratch_stats();
  EXPECT_EQ(steady.requests[2].layers[thread_layer].detections, 1);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace aift
