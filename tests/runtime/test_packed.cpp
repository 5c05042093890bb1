// Packed-operand suite: the panel-packed GEMM — the only B layout the
// threadblocks read — must reproduce the scalar oracle
// (tests/gemm/gemm_oracle.hpp) bit for bit: outputs, MMA counters and
// fault semantics, across tiles, non-divisible shapes and padding-adjacent
// fault sites. A session packing its weights once must match a session
// packing per call (pack_weights = false) in outputs and full traces,
// through both verification modes. CTest additionally runs this whole
// binary pinned to AIFT_NUM_THREADS=1/2/8 (packed_determinism_threads_*),
// making worker-count independence an explicit CTest fact like the other
// determinism suites.

#include "gemm/packed_operand.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../gemm/gemm_oracle.hpp"
#include "common/rng.hpp"
#include "gemm/functional.hpp"
#include "nn/model.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "session_result_testing.hpp"

namespace aift {
namespace {

struct Case {
  GemmShape shape;
  TileConfig tile;
};

// The functional suite's shape/tile zoo: divisible, padded, straddling and
// edge-block geometries all exercise distinct packing boundaries.
std::vector<Case> shape_cases() {
  return {
      Case{{16, 8, 8}, {32, 32, 32, 16, 16, 2}},
      Case{{64, 64, 64}, {64, 64, 32, 32, 32, 2}},
      Case{{1, 1, 1}, {32, 32, 32, 16, 16, 2}},      // extreme padding
      Case{{7, 9, 13}, {32, 32, 32, 16, 16, 2}},     // odd everything
      Case{{33, 65, 17}, {32, 64, 32, 16, 32, 2}},   // tile straddling
      Case{{8, 256, 512}, {16, 64, 32, 16, 16, 2}},  // DLRM-like
      Case{{130, 70, 40}, {128, 64, 32, 64, 32, 2}}  // edge blocks
  };
}

void expect_counters_eq(const GemmCounters& got, const GemmCounters& want,
                        const std::string& context) {
  EXPECT_EQ(got.mmas, want.mmas) << context;
  EXPECT_EQ(got.k8_steps, want.k8_steps) << context;
  EXPECT_EQ(got.blocks, want.blocks) << context;
  EXPECT_EQ(got.fp16_stores, want.fp16_stores) << context;
}

TEST(PackedGemmTest, BitIdenticalAcrossShapeZoo) {
  for (const auto& [shape, tile] : shape_cases()) {
    Rng rng(42);
    Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    const PackedOperand packed = pack_operand(b, tile);
    const Matrix<half_t> want = testing::gemm_oracle(a, b, tile);

    for (const bool parallel : {false, true}) {
      Matrix<half_t> c_packed(shape.m, shape.n);
      GemmCounters packed_counters;
      FunctionalOptions packed_opts;
      packed_opts.parallel = parallel;
      packed_opts.counters = &packed_counters;
      functional_gemm(a, packed, c_packed, tile, packed_opts);
      const std::string context = "shape " + std::to_string(shape.m) + "x" +
                                  std::to_string(shape.n) + "x" +
                                  std::to_string(shape.k) + " tile " +
                                  tile.name() +
                                  (parallel ? " parallel" : " serial");
      EXPECT_TRUE(c_packed == want) << context;
      expect_counters_eq(packed_counters,
                         testing::gemm_oracle_counters(shape, tile), context);
    }
  }
}

TEST(PackedGemmTest, BitIdenticalAcrossCandidateTiles) {
  // Every tile the profiler can select must pack correctly.
  const GemmShape shape{50, 100, 70};
  Rng rng(7);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  for (const TileConfig& tile : candidate_tiles()) {
    const PackedOperand packed = pack_operand(b, tile);
    Matrix<half_t> c_packed(shape.m, shape.n);
    functional_gemm(a, packed, c_packed, tile);
    EXPECT_TRUE(c_packed == testing::gemm_oracle(a, b, tile)) << tile.name();
  }
}

TEST(PackedGemmTest, FaultSemanticsIdenticalAtPaddingBoundary) {
  // Fault sites hugging the padded edge — last stored row/col, first
  // padding row/col, and a mid-K step — behave as the oracle says: stored
  // faults corrupt their element, padding faults stay invisible.
  const GemmShape shape{33, 65, 40};  // pads to 64 x 128 under this tile
  const TileConfig tile{32, 64, 32, 16, 32, 2};
  Rng rng(11);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const PackedOperand packed = pack_operand(b, tile);

  const std::vector<FaultSpec> sites = {
      {shape.m - 1, shape.n - 1, -1, 0x20000000u},  // last stored element
      {shape.m, shape.n - 1, -1, 0x7F000000u},      // first padding row
      {shape.m - 1, shape.n, -1, 0x7F000000u},      // first padding col
      {0, 0, 2, 0x00400000u},                       // mid-K step
  };
  for (const FaultSpec& fault : sites) {
    FunctionalOptions opts;
    opts.faults = {fault};
    Matrix<half_t> c_packed(shape.m, shape.n);
    functional_gemm(a, packed, c_packed, tile, opts);
    EXPECT_TRUE(c_packed == testing::gemm_oracle(a, b, tile, opts.faults))
        << "fault at (" << fault.row << "," << fault.col << ") step "
        << fault.k8_step;
  }
}

TEST(PackedGemmTest, BatchedBitIdenticalWithPerRequestFaults) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  const std::int64_t batch = 5, m = 3, k = 40, n = 24;
  Rng rng(71);
  Matrix<half_t> a(batch * m, k), b(k, n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const PackedOperand packed = pack_operand(b, tile);
  BatchedGemmOptions opts;
  opts.faults.resize(static_cast<std::size_t>(batch));
  opts.faults[2] = {FaultSpec{1, 2, -1, 0x20000000u}};
  opts.faults[4] = {FaultSpec{m, 0, -1, 0x7F000000u}};  // padding-only: inert
  Matrix<half_t> c_packed(batch * m, n);
  functional_gemm_batched(a, packed, c_packed, m, tile, opts);
  // Each request's rows are its standalone oracle GEMM under its own
  // request-local faults.
  for (std::int64_t r = 0; r < batch; ++r) {
    Matrix<half_t> a_r(m, k);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < k; ++j) a_r(i, j) = a(r * m + i, j);
    const Matrix<half_t> want = testing::gemm_oracle(
        a_r, b, tile, opts.faults[static_cast<std::size_t>(r)]);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(c_packed(r * m + i, j).bits(), want(i, j).bits())
            << "request " << r << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(PackedGemmTest, FingerprintIsStructural) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Rng rng(5);
  Matrix<half_t> b(24, 20);
  rng.fill_uniform(b);
  const PackedOperand p1 = pack_operand(b, tile);
  const PackedOperand p2 = pack_operand(b, tile);
  EXPECT_EQ(p1.fingerprint, p2.fingerprint);
  EXPECT_EQ(p1.fingerprint, packed_fingerprint(b, tile));

  // Any operand bit flips it; so does the pack geometry (kb/nb).
  Matrix<half_t> b2 = b;
  b2(3, 4) = half_t(b2(3, 4).to_float() + 0.25f);
  EXPECT_NE(pack_operand(b2, tile).fingerprint, p1.fingerprint);
  const TileConfig other{32, 64, 32, 16, 32, 2};
  EXPECT_NE(pack_operand(b, other).fingerprint, p1.fingerprint);
}

TEST(PackedGemmTest, RejectsIncompatiblePack) {
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  const TileConfig other{32, 64, 32, 16, 32, 2};  // different nb
  Rng rng(6);
  Matrix<half_t> a(16, 24), b(24, 20);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  const PackedOperand packed = pack_operand(b, tile);
  EXPECT_TRUE(packed.compatible(24, 20, tile));
  EXPECT_FALSE(packed.compatible(24, 20, other));
  Matrix<half_t> c(16, 20);
  EXPECT_THROW(functional_gemm(a, packed, c, other), std::logic_error);
}

// Session-level identity: a session serving from construction-time weight
// packs must match a pack_weights=false session, which packs per call, bit
// for bit — outputs and full traces — through the serial facade, the
// batched executor (deferred and synchronous verification) and
// fault-triggered retry paths.
class PackedSessionTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferenceSession make_session(ProtectionPolicy policy,
                                              bool pack) const {
    SessionOptions opts;
    opts.pack_weights = pack;
    Model model = []() {
      ModelBuilder b("TinyMLP", /*batch=*/4, /*in_features=*/24);
      b.linear("fc1", 32);
      b.linear("fc2", 24);
      b.linear("fc3", 12);
      return std::move(b).build();
    }();
    return InferenceSession(pipe_.plan(model, policy), opts);
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
};

TEST_F(PackedSessionTest, PackedWeightsExposedOnlyWhenEnabled) {
  const auto packed = make_session(ProtectionPolicy::global_abft, true);
  const auto raw = make_session(ProtectionPolicy::global_abft, false);
  for (std::size_t i = 0; i < packed.num_layers(); ++i) {
    ASSERT_NE(packed.packed_weights(i), nullptr) << "layer " << i;
    EXPECT_EQ(packed.packed_weights(i)->fingerprint,
              packed_fingerprint(packed.weights(i),
                                 packed.plan().entries[i].exec_tile()))
        << "layer " << i;
    EXPECT_EQ(raw.packed_weights(i), nullptr) << "layer " << i;
  }
}

TEST_F(PackedSessionTest, RunsBitIdenticalToUnpackedSession) {
  for (const auto policy :
       {ProtectionPolicy::none, ProtectionPolicy::global_abft,
        ProtectionPolicy::thread_level, ProtectionPolicy::intensity_guided}) {
    const auto packed = make_session(policy, true);
    const auto raw = make_session(policy, false);
    const auto input = packed.make_input(100);
    // Clean run and a fault-triggered retry run (detection + recovery).
    for (const bool with_fault : {false, true}) {
      SessionRunOptions opts;
      if (with_fault) opts.faults = {SessionFault{1, big_fault(1, 2), 0}};
      expect_identical(packed.run(input, opts), raw.run(input, opts),
                       "policy " + std::to_string(static_cast<int>(policy)) +
                           (with_fault ? " faulty" : " clean"));
    }
  }
}

TEST_F(PackedSessionTest, BatchedExecutorBitIdenticalBothVerificationModes) {
  const auto packed = make_session(ProtectionPolicy::global_abft, true);
  const auto raw = make_session(ProtectionPolicy::global_abft, false);
  std::vector<BatchRequest> batch(4);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = packed.make_input(200 + r);
  }
  batch[1].faults = {SessionFault{0, big_fault(), 0}};
  batch[3].faults = {SessionFault{2, big_fault(1, 2), 0},
                     SessionFault{2, big_fault(2, 1), 1}};
  for (const bool defer : {false, true}) {
    BatchOptions opts;
    opts.defer_verification = defer;
    const auto got = BatchExecutor(packed).run(batch, opts);
    const auto want = BatchExecutor(raw).run(batch, opts);
    ASSERT_EQ(got.requests.size(), want.requests.size());
    for (std::size_t r = 0; r < got.requests.size(); ++r) {
      expect_identical(got.requests[r], want.requests[r],
                       std::string(defer ? "deferred" : "synchronous") +
                           " request " + std::to_string(r));
    }
  }
}

}  // namespace
}  // namespace aift
