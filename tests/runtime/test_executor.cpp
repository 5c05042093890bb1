// BatchExecutor tests: the batched serving engine must be bit-identical —
// outputs and per-layer traces — to running the same requests sequentially
// through InferenceSession::run, at any batch size, under parallel or
// serial execution. CTest
// additionally runs this whole binary pinned to AIFT_NUM_THREADS=1/2/8
// (batched_determinism_threads_*), making worker-count independence an
// explicit CTest fact like the campaign suites.

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"
#include "session_result_testing.hpp"

namespace aift {
namespace {

Model tiny_mlp() {
  ModelBuilder b("TinyMLP", /*batch=*/4, /*in_features=*/24);
  b.linear("fc1", 32);
  b.linear("fc2", 24);
  b.linear("fc3", 12);
  return std::move(b).build();
}

class BatchExecutorTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferenceSession make_session(ProtectionPolicy policy,
                                              SessionOptions opts = {}) const {
    return InferenceSession(pipe_.plan(model_, policy), opts);
  }

  /// A batch whose request r gets input seed 100+r; rows 1 and 3 (when
  /// present) carry injected faults in different layers.
  [[nodiscard]] static std::vector<BatchRequest> make_batch(
      const InferenceSession& session, std::size_t size) {
    std::vector<BatchRequest> batch(size);
    for (std::size_t r = 0; r < size; ++r) {
      batch[r].input = session.make_input(100 + r);
    }
    if (size > 1) batch[1].faults = {SessionFault{0, big_fault(), 0}};
    if (size > 3) {
      batch[3].faults = {SessionFault{2, big_fault(1, 2), 0},
                         SessionFault{2, big_fault(2, 1), 1}};
    }
    return batch;
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
  Model model_ = tiny_mlp();
};

// The headline invariant: for every policy and any batch size, the batch
// result equals B sequential serial-path sessions bit for bit.
TEST_F(BatchExecutorTest, BatchMatchesSequentialSessions) {
  for (const auto policy :
       {ProtectionPolicy::none, ProtectionPolicy::global_abft,
        ProtectionPolicy::thread_level, ProtectionPolicy::repl_single_acc,
        ProtectionPolicy::intensity_guided}) {
    const auto session = make_session(policy);
    const BatchExecutor executor(session);
    for (const std::size_t size : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
      const auto batch = make_batch(session, size);
      const auto result = executor.run(batch);
      ASSERT_EQ(result.requests.size(), size);
      for (std::size_t r = 0; r < size; ++r) {
        SessionRunOptions sopts;
        sopts.faults = batch[r].faults;
        const auto want = session.run(batch[r].input, sopts);
        expect_identical(result.requests[r], want,
                         std::string(policy_name(policy)) + "/B" +
                             std::to_string(size) + "/row" +
                             std::to_string(r));
      }
      // session.run executes on the same engine, so agreement alone cannot
      // show that a check works: row 1's layer-0 fault must also have been
      // flagged and recovered inside the batch.
      if (policy != ProtectionPolicy::none && size > 1) {
        EXPECT_EQ(result.requests[1].layers[0].detections, 1);
        EXPECT_TRUE(result.requests[1].recovered());
      }
    }
  }
}

TEST_F(BatchExecutorTest, ParallelAndSerialExecutionAgreeBitForBit) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const BatchExecutor executor(session);
  const auto batch = make_batch(session, 5);
  BatchOptions par, ser;
  ser.parallel = false;
  const auto a = executor.run(batch, par);
  const auto b = executor.run(batch, ser);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t r = 0; r < a.requests.size(); ++r) {
    expect_identical(a.requests[r], b.requests[r],
                     "parallel-vs-serial row " + std::to_string(r));
  }
  EXPECT_EQ(a.stats, b.stats);
}

TEST_F(BatchExecutorTest, SynchronousModeUsesNoQueue) {
  const auto session = make_session(ProtectionPolicy::global_abft);
  const BatchExecutor executor(session);
  const auto result = executor.run(make_batch(session, 2));
  EXPECT_EQ(result.stats.synchronous_checks,
            static_cast<std::int64_t>(2 * session.num_layers()));
}

// Satellite requirement: a persistent fault in one batch row must surface
// as that row's failure without corrupting or re-executing sibling rows.
TEST_F(BatchExecutorTest, RetryBudgetExhaustionIsIsolatedToItsRow) {
  SessionOptions sopts;
  sopts.max_retries = 2;
  const auto session =
      make_session(ProtectionPolicy::global_abft, sopts);
  const BatchExecutor executor(session);

  std::vector<BatchRequest> batch(4);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = session.make_input(300 + r);
  }
  // Row 2: the fault persists through every execution attempt of layer 1.
  // It targets the largest-magnitude cell of that layer's clean output so
  // the exponent flip is super-threshold for the global checksum in either
  // scaling direction (squash is monotone in |x| and the repack between
  // fc2 and fc3 is the identity, so the activated input to layer 2 ranks
  // the raw layer-1 cells faithfully).
  const auto clean_l2_input = session.layer_inputs(batch[2].input)[2];
  std::int64_t frow = 0, fcol = 0;
  float best = -1.0f;
  for (std::int64_t r = 0; r < clean_l2_input.rows(); ++r) {
    for (std::int64_t c = 0; c < clean_l2_input.cols(); ++c) {
      const float mag = std::fabs(clean_l2_input(r, c).to_float());
      if (mag > best) {
        best = mag;
        frow = r;
        fcol = c;
      }
    }
  }
  for (int e = 0; e <= sopts.max_retries; ++e) {
    batch[2].faults.push_back(SessionFault{1, big_fault(frow, fcol), e});
  }

  const auto result = executor.run(batch);
  // The persistent row surrendered after the budget...
  EXPECT_FALSE(result.requests[2].recovered());
  EXPECT_TRUE(result.requests[2].layers[1].unrecovered);
  EXPECT_EQ(result.requests[2].layers[1].executions, sopts.max_retries + 1);
  EXPECT_EQ(result.requests[2].layers[1].detections, sopts.max_retries + 1);
  // ...matching its standalone serial run exactly, surrendered output
  // included.
  SessionRunOptions ropts;
  ropts.faults = batch[2].faults;
  expect_identical(result.requests[2], session.run(batch[2].input, ropts),
                   "surrendered row");
  // Sibling rows never saw a detection, never re-executed, and their
  // outputs are bit-identical to their own clean standalone runs.
  for (const std::size_t r : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    EXPECT_TRUE(result.requests[r].clean()) << "row " << r;
    for (const auto& trace : result.requests[r].layers) {
      EXPECT_EQ(trace.executions, 1) << "row " << r;
    }
    EXPECT_TRUE(result.requests[r].output ==
                session.run(batch[r].input).output)
        << "row " << r;
  }
}

TEST_F(BatchExecutorTest, RunFromMatchesSessionSuffix) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const BatchExecutor executor(session);
  const auto inputs = session.layer_inputs(session.make_input(42));
  for (std::size_t li = 0; li < session.num_layers(); ++li) {
    std::vector<BatchRequest> batch(3);
    for (auto& req : batch) req.input = inputs[li];
    batch[1].faults = {SessionFault{li, big_fault(), 0}};
    const auto result = executor.run_from(li, batch);
    for (std::size_t r = 0; r < batch.size(); ++r) {
      SessionRunOptions sopts;
      sopts.faults = batch[r].faults;
      const auto want = session.run_from(li, inputs[li], sopts);
      expect_identical(result.requests[r], want,
                       "run_from layer " + std::to_string(li) + " row " +
                           std::to_string(r));
    }
  }
}

TEST_F(BatchExecutorTest, LargeBatchServesEveryRequest) {
  const auto mlp = zoo::dlrm_mlp_bottom(1);
  const InferenceSession session(
      pipe_.plan(mlp, ProtectionPolicy::intensity_guided));
  const BatchExecutor executor(session);
  std::vector<BatchRequest> batch(64);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = session.make_input(500 + r);
  }
  const auto result = executor.run(batch);
  ASSERT_EQ(result.requests.size(), batch.size());
  // Spot-check rows against their standalone runs (all 64 would be slow).
  for (const std::size_t r : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    expect_identical(result.requests[r], session.run(batch[r].input),
                     "B=64 row " + std::to_string(r));
  }
}

// Satellite requirement: budget exhaustion at B>1 must be a pure per-row
// event — engine-level BatchStats are identical between
// parallel and serial execution, and every row (surrendered one included)
// reproduces the serial engine bit for bit.
TEST_F(BatchExecutorTest, DeferredBudgetExhaustionMatchesSerialEngine) {
  SessionOptions sopts;
  sopts.max_retries = 2;
  const auto session = make_session(ProtectionPolicy::global_abft, sopts);
  const BatchExecutor executor(session);

  std::vector<BatchRequest> batch(3);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    batch[r].input = session.make_input(900 + r);
  }
  // Row 1: a persistent fault on every execution attempt of layer 0 — the
  // retry budget must exhaust inside the batch. Target the
  // largest-magnitude cell of layer 0's clean output (ranked through the
  // monotone squash / identity repack, as in the test above) so the
  // exponent flip is super-threshold in either scaling direction.
  const auto clean_l1_input = session.layer_inputs(batch[1].input)[1];
  std::int64_t frow = 0, fcol = 0;
  float best = -1.0f;
  for (std::int64_t r = 0; r < clean_l1_input.rows(); ++r) {
    for (std::int64_t c = 0; c < clean_l1_input.cols(); ++c) {
      const float mag = std::fabs(clean_l1_input(r, c).to_float());
      if (mag > best) {
        best = mag;
        frow = r;
        fcol = c;
      }
    }
  }
  for (int e = 0; e <= sopts.max_retries; ++e) {
    batch[1].faults.push_back(SessionFault{0, big_fault(frow, fcol), e});
  }

  BatchOptions serial;
  serial.parallel = false;
  const auto par = executor.run(batch);
  const auto ser = executor.run(batch, serial);

  // Engine-level stats are scheduling-independent, and every attempt-0
  // check ran in-line.
  EXPECT_EQ(par.stats, ser.stats);
  EXPECT_EQ(par.stats.synchronous_checks,
            static_cast<std::int64_t>(3 * session.num_layers()));

  // The surrendered row carries unrecovered and its serial-engine result;
  // siblings stay clean.
  EXPECT_TRUE(par.requests[1].layers[0].unrecovered);
  EXPECT_EQ(par.requests[1].layers[0].executions, sopts.max_retries + 1);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    expect_identical(par.requests[r], ser.requests[r],
                     "par-vs-ser row " + std::to_string(r));
    SessionRunOptions run_opts;
    run_opts.faults = batch[r].faults;
    expect_identical(par.requests[r], session.run(batch[r].input, run_opts),
                     "batch-vs-serial-engine row " + std::to_string(r));
  }
  EXPECT_TRUE(par.requests[0].clean());
  EXPECT_TRUE(par.requests[2].clean());
}

// Satellite requirement: a fault addressed to a layer the run never
// executes used to be silently ignored (a mistyped campaign fault site
// would report as "masked"); now it is rejected up front.
TEST_F(BatchExecutorTest, RejectsFaultsOutsideExecutedLayerRange) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const BatchExecutor executor(session);

  // Past the last layer on a full run.
  std::vector<BatchRequest> batch(2);
  batch[0].input = session.make_input(1);
  batch[1].input = session.make_input(2);
  batch[1].faults = {SessionFault{session.num_layers(), big_fault(), 0}};
  EXPECT_THROW((void)executor.run(batch), std::logic_error);

  // Before first_layer on a suffix run.
  const auto inputs = session.layer_inputs(session.make_input(3));
  std::vector<BatchRequest> suffix(1);
  suffix[0].input = inputs[1];
  suffix[0].faults = {SessionFault{0, big_fault(), 0}};
  EXPECT_THROW((void)executor.run_from(1, suffix), std::logic_error);

  // The same misaddressed fault through the session facade.
  SessionRunOptions run_opts;
  run_opts.faults = {SessionFault{session.num_layers(), big_fault(), 0}};
  EXPECT_THROW((void)session.run(session.make_input(4), run_opts),
               std::logic_error);

  // A fault on an execution attempt past the retry budget can likewise
  // never inject (attempts are capped at max_retries) — rejected too.
  std::vector<BatchRequest> budget(1);
  budget[0].input = session.make_input(5);
  budget[0].faults = {
      SessionFault{0, big_fault(), session.options().max_retries + 1}};
  EXPECT_THROW((void)executor.run(budget), std::logic_error);
  budget[0].faults = {SessionFault{0, big_fault(), -1}};
  EXPECT_THROW((void)executor.run(budget), std::logic_error);

  // In-range faults at both boundaries still execute.
  suffix[0].faults = {SessionFault{1, big_fault(), 0}};
  EXPECT_NO_THROW((void)executor.run_from(1, suffix));
  budget[0].faults = {
      SessionFault{0, big_fault(), session.options().max_retries}};
  EXPECT_NO_THROW((void)executor.run(budget));
}

TEST_F(BatchExecutorTest, RejectsEmptyAndMisshapenBatches) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const BatchExecutor executor(session);
  EXPECT_THROW((void)executor.run({}), std::logic_error);
  std::vector<BatchRequest> batch(2);
  batch[0].input = session.make_input(1);
  batch[1].input = Matrix<half_t>(session.input_rows(),
                                  session.input_cols() + 1);
  EXPECT_THROW((void)executor.run(batch), std::logic_error);
}

}  // namespace
}  // namespace aift
