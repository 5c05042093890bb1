// InferenceSession tests: the execute stage must detect and recover an
// injected fault in any layer when protected, surrender gracefully when
// the retry budget is exhausted, and demonstrably corrupt the final
// output when protection is off.

#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"

namespace aift {
namespace {

// Small MLP so functional execution stays fast; three layers exercise
// multi-hop propagation.
Model tiny_mlp() {
  ModelBuilder b("TinyMLP", /*batch=*/4, /*in_features=*/24);
  b.linear("fc1", 32);
  b.linear("fc2", 24);
  b.linear("fc3", 12);
  return std::move(b).build();
}

// Flip exponent bit 29: rescales the accumulator by 2^±32, so every
// scheme detects it and, unprotected, it must reach the output. (Unlike
// bit 30, this can never turn a finite FP32 accumulator into Inf/NaN.)
FaultSpec big_fault(std::int64_t row = 0, std::int64_t col = 0) {
  return FaultSpec{row, col, /*k8_step=*/-1, /*xor_bits=*/0x20000000u};
}

class SessionTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferenceSession make_session(ProtectionPolicy policy,
                                              SessionOptions opts = {}) const {
    return InferenceSession(pipe_.plan(model_, policy), opts);
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
  Model model_ = tiny_mlp();
};

TEST_F(SessionTest, CleanRunIsDeterministicAndUnflagged) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto input = session.make_input(11);
  const auto r1 = session.run(input);
  const auto r2 = session.run(input);
  EXPECT_TRUE(r1.clean());
  EXPECT_TRUE(r1.recovered());
  EXPECT_EQ(r1.total_retries(), 0);
  EXPECT_TRUE(r1.output == r2.output);
  ASSERT_EQ(r1.layers.size(), model_.num_layers());
  for (std::size_t i = 0; i < r1.layers.size(); ++i) {
    EXPECT_EQ(r1.layers[i].executions, 1);
    EXPECT_EQ(r1.layers[i].output_digest, r2.layers[i].output_digest);
  }
}

TEST_F(SessionTest, SerialAndParallelGemmsAgreeBitForBit) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto input = session.make_input(12);
  SessionRunOptions serial;
  serial.parallel = false;
  EXPECT_TRUE(session.run(input).output == session.run(input, serial).output);
}

TEST_F(SessionTest, TraceMirrorsPlan) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto result = session.run(session.make_input(13));
  ASSERT_EQ(result.layers.size(), session.plan().entries.size());
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    EXPECT_EQ(result.layers[i].name, session.plan().entries[i].layer.name);
    EXPECT_EQ(result.layers[i].scheme, session.plan().entries[i].scheme());
  }
}

TEST_F(SessionTest, FaultInAnyLayerIsDetectedAndRecovered) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto input = session.make_input(14);
  const auto clean = session.run(input);
  for (std::size_t li = 0; li < session.num_layers(); ++li) {
    SessionRunOptions opts;
    opts.faults = {SessionFault{li, big_fault(), 0}};
    const auto result = session.run(input, opts);
    EXPECT_EQ(result.layers[li].detections, 1) << "layer " << li;
    EXPECT_EQ(result.layers[li].executions, 2) << "layer " << li;
    EXPECT_TRUE(result.recovered()) << "layer " << li;
    EXPECT_EQ(result.total_retries(), 1) << "layer " << li;
    // Recovery restores the fault-free output bit-for-bit.
    EXPECT_TRUE(result.output == clean.output) << "layer " << li;
  }
}

TEST_F(SessionTest, UnprotectedFaultCorruptsTheOutput) {
  const auto session = make_session(ProtectionPolicy::none);
  const auto input = session.make_input(15);
  const auto clean = session.run(input);
  for (std::size_t li = 0; li < session.num_layers(); ++li) {
    SessionRunOptions opts;
    opts.faults = {SessionFault{li, big_fault(), 0}};
    const auto result = session.run(input, opts);
    EXPECT_EQ(result.total_detections(), 0) << "layer " << li;
    EXPECT_EQ(result.total_retries(), 0) << "layer " << li;
    EXPECT_FALSE(result.output == clean.output)
        << "fault in layer " << li << " silently vanished";
  }
}

TEST_F(SessionTest, FaultyRetryIsReDetectedThenRecovered) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto input = session.make_input(16);
  const auto clean = session.run(input);
  SessionRunOptions opts;
  opts.faults = {SessionFault{1, big_fault(), 0},
                 SessionFault{1, big_fault(1, 2), 1}};
  const auto result = session.run(input, opts);
  EXPECT_EQ(result.layers[1].detections, 2);
  EXPECT_EQ(result.layers[1].executions, 3);
  EXPECT_TRUE(result.recovered());
  EXPECT_TRUE(result.output == clean.output);
}

TEST_F(SessionTest, RetryBudgetExhaustionIsSurrendered) {
  SessionOptions sopts;
  sopts.max_retries = 2;
  const auto session = make_session(ProtectionPolicy::intensity_guided, sopts);
  const auto input = session.make_input(17);
  const auto clean = session.run(input);
  SessionRunOptions opts;
  for (int e = 0; e <= sopts.max_retries; ++e) {
    opts.faults.push_back(SessionFault{0, big_fault(), e});
  }
  const auto result = session.run(input, opts);
  EXPECT_TRUE(result.layers[0].unrecovered);
  EXPECT_FALSE(result.recovered());
  EXPECT_EQ(result.layers[0].executions, sopts.max_retries + 1);
  EXPECT_EQ(result.layers[0].detections, sopts.max_retries + 1);
  // The flagged output was surrendered downstream.
  EXPECT_FALSE(result.output == clean.output);
}

TEST_F(SessionTest, WeightsAreSeededPerLayer) {
  const auto plan = pipe_.plan(model_, ProtectionPolicy::intensity_guided);
  SessionOptions a, b;
  a.weight_seed = 1;
  b.weight_seed = 2;
  const InferenceSession s1(plan, a), s2(plan, a), s3(plan, b);
  for (std::size_t i = 0; i < s1.num_layers(); ++i) {
    EXPECT_TRUE(s1.weights(i) == s2.weights(i)) << i;
    EXPECT_FALSE(s1.weights(i) == s3.weights(i)) << i;
  }
  EXPECT_FALSE(s1.weights(0) == s1.weights(1));
}

TEST_F(SessionTest, RejectsMisshapenInput) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  EXPECT_EQ(session.input_rows(), 4);
  EXPECT_EQ(session.input_cols(), 24);
  Matrix<half_t> wrong(4, 23);
  EXPECT_THROW((void)session.run(wrong), std::logic_error);
}

TEST_F(SessionTest, AllFixedPoliciesExecuteAndRecover) {
  // Every scheme's checker is exercised through the session at least once.
  // The fault targets the largest-magnitude cell of the final layer, so
  // the exponent flip's corruption is super-threshold for every checker
  // (a down-scaling flip of a near-zero cell can legitimately hide below
  // the global checksum's FP16 rounding bound).
  const auto input_seed = 18;
  for (const auto policy :
       {ProtectionPolicy::global_abft, ProtectionPolicy::thread_level,
        ProtectionPolicy::thread_two_sided}) {
    const auto session = make_session(policy);
    const auto input = session.make_input(input_seed);
    const auto clean = session.run(input);
    EXPECT_TRUE(clean.clean()) << policy_name(policy);

    std::int64_t row = 0, col = 0;
    float best = -1.0f;
    for (std::int64_t r = 0; r < clean.output.rows(); ++r) {
      for (std::int64_t c = 0; c < clean.output.cols(); ++c) {
        const float mag = std::fabs(clean.output(r, c).to_float());
        if (mag > best) {
          best = mag;
          row = r;
          col = c;
        }
      }
    }

    SessionRunOptions opts;
    opts.faults = {SessionFault{2, big_fault(row, col), 0}};
    const auto result = session.run(input, opts);
    EXPECT_EQ(result.layers[2].detections, 1) << policy_name(policy);
    EXPECT_TRUE(result.output == clean.output) << policy_name(policy);
  }
}

TEST_F(SessionTest, ReplicationPoliciesAreRejected) {
  // Replication plans compile and price, but no session executes them.
  for (const auto policy : {ProtectionPolicy::repl_traditional,
                            ProtectionPolicy::repl_single_acc}) {
    const auto plan = pipe_.plan(model_, policy);
    try {
      const InferenceSession session(plan);
      ADD_FAILURE() << policy_name(policy) << " was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(policy_name(policy)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SessionTest, SuffixRunMatchesFullRun) {
  // The campaign fast path: running from the faulted layer on the cached
  // clean activation must reproduce the full run's suffix traces and
  // final output bit-for-bit, faulty or not.
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const auto input = session.make_input(20);
  const auto inputs = session.layer_inputs(input);
  ASSERT_EQ(inputs.size(), session.num_layers());
  EXPECT_TRUE(inputs[0] == input);

  for (std::size_t li = 0; li < session.num_layers(); ++li) {
    SessionRunOptions opts;
    opts.faults = {SessionFault{li, big_fault(), 0}};
    const auto full = session.run(input, opts);
    const auto suffix = session.run_from(li, inputs[li], opts);
    ASSERT_EQ(suffix.layers.size(), session.num_layers() - li);
    EXPECT_TRUE(suffix.output == full.output) << li;
    for (std::size_t j = 0; j < suffix.layers.size(); ++j) {
      EXPECT_EQ(suffix.layers[j].detections, full.layers[li + j].detections);
      EXPECT_EQ(suffix.layers[j].executions, full.layers[li + j].executions);
      EXPECT_EQ(suffix.layers[j].output_digest,
                full.layers[li + j].output_digest);
    }
  }
}

TEST_F(SessionTest, ZooModelRunsThroughSession) {
  const auto mlp = zoo::dlrm_mlp_bottom(1);
  const InferenceSession session(
      pipe_.plan(mlp, ProtectionPolicy::intensity_guided));
  const auto input = session.make_input(19);
  const auto clean = session.run(input);
  EXPECT_TRUE(clean.clean());
  SessionRunOptions opts;
  opts.faults = {SessionFault{1, big_fault(), 0}};
  const auto result = session.run(input, opts);
  EXPECT_EQ(result.layers[1].detections, 1);
  EXPECT_TRUE(result.output == clean.output);
}

}  // namespace
}  // namespace aift
