// Model-level campaign tests: faults injected into a random layer of a
// real forward pass, end to end through the session's detect-and-retry
// machinery — including the zoo-model acceptance flow and the
// parallel-equals-serial determinism guarantee.

#include "fault/model_campaign.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"

namespace aift {
namespace {

// Serial reference engine: trial t draws its layer and fault from its own
// stream, then runs the session from that layer on the clean activation
// feeding it, one trial after another with serial GEMMs. The parallel and
// batched engines must reproduce its stats bit for bit.
ModelCampaignStats run_model_campaign_serial(const InferenceSession& session,
                                             const ModelCampaignConfig& cfg) {
  const auto inputs = session.layer_inputs(session.make_input(cfg.input_seed));
  const Matrix<half_t> clean =
      session.run_from(session.num_layers() - 1, inputs.back()).output;
  ModelCampaignStats stats;
  stats.faults_per_layer.assign(session.num_layers(), 0);
  stats.detections_per_layer.assign(session.num_layers(), 0);
  for (std::int64_t t = 0; t < cfg.trials; ++t) {
    Rng rng(campaign_trial_seed(cfg.seed, t));
    const auto layer = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(session.num_layers()) - 1));
    const auto& entry = session.plan().entries[layer];
    SessionRunOptions opts;
    opts.parallel = false;
    opts.faults = {SessionFault{
        layer,
        random_fault(rng, entry.layer.gemm, entry.exec_tile(), cfg.fault_opts),
        /*execution=*/0}};
    classify_model_trial(stats, layer,
                         session.run_from(layer, inputs[layer], opts), clean);
  }
  return stats;
}

class ModelCampaignTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferenceSession session_for(ProtectionPolicy policy) const {
    return InferenceSession(pipe_.plan(zoo::dlrm_mlp_bottom(1), policy));
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
};

TEST_F(ModelCampaignTest, ZooModelHighBitFaultsAllDetectedAndRecovered) {
  // The acceptance flow: a zoo model under intensity_guided, faults via
  // the campaign path, detection + retry restoring the fault-free output.
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 48;
  cfg.fault_opts.min_bit = 27;  // large corruptions: must always be caught
  cfg.fault_opts.max_bit = 29;
  const auto stats = run_model_campaign(session, cfg);

  EXPECT_EQ(stats.trials, cfg.trials);
  EXPECT_EQ(stats.detected, cfg.trials);
  EXPECT_EQ(stats.recovered, cfg.trials);
  EXPECT_EQ(stats.unrecovered, 0);
  EXPECT_EQ(stats.sdc, 0);
  EXPECT_EQ(stats.masked, 0);
  EXPECT_DOUBLE_EQ(stats.effective_coverage(), 1.0);
}

TEST_F(ModelCampaignTest, FaultSitesCoverEveryLayer) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 60;
  cfg.fault_opts.min_bit = 27;
  cfg.fault_opts.max_bit = 29;
  const auto stats = run_model_campaign(session, cfg);

  ASSERT_EQ(stats.faults_per_layer.size(), session.num_layers());
  const auto total = std::accumulate(stats.faults_per_layer.begin(),
                                     stats.faults_per_layer.end(),
                                     std::int64_t{0});
  EXPECT_EQ(total, cfg.trials);
  for (std::size_t i = 0; i < stats.faults_per_layer.size(); ++i) {
    EXPECT_GT(stats.faults_per_layer[i], 0) << "layer " << i << " never hit";
    EXPECT_EQ(stats.detections_per_layer[i], stats.faults_per_layer[i]) << i;
  }
}

TEST_F(ModelCampaignTest, UnprotectedCampaignSeesSilentCorruption) {
  const auto session = session_for(ProtectionPolicy::none);
  ModelCampaignConfig cfg;
  cfg.trials = 32;
  cfg.fault_opts.min_bit = 27;
  cfg.fault_opts.max_bit = 29;
  const auto stats = run_model_campaign(session, cfg);

  EXPECT_EQ(stats.detected, 0);
  EXPECT_EQ(stats.recovered, 0);
  EXPECT_GT(stats.sdc, 0) << "high-bit faults must corrupt unprotected output";
  EXPECT_EQ(stats.sdc + stats.masked, cfg.trials);
}

TEST_F(ModelCampaignTest, ParallelMatchesSerialBitForBit) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 24;
  cfg.fault_opts.min_bit = 10;  // include maskable low bits
  cfg.fault_opts.max_bit = 29;
  const auto parallel = run_model_campaign(session, cfg);
  const auto serial = run_model_campaign_serial(session, cfg);
  EXPECT_EQ(parallel, serial);
}

TEST_F(ModelCampaignTest, SeedSelectsTheCampaign) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 16;
  const auto a = run_model_campaign(session, cfg);
  const auto repeat = run_model_campaign(session, cfg);
  EXPECT_EQ(a, repeat);

  auto other = cfg;
  other.seed = 43;
  const auto b = run_model_campaign(session, other);
  // Same totals structure, but almost surely different per-layer pattern.
  EXPECT_EQ(b.trials, a.trials);
  EXPECT_NE(a.faults_per_layer, b.faults_per_layer);
}

TEST_F(ModelCampaignTest, LowBitFaultsMostlyMaskAndAlwaysPartition) {
  // Flips far below FP16 rounding magnitude round away before any stored
  // output — the masked class — and every trial lands in exactly one of
  // detected / masked / sdc.
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 40;
  cfg.fault_opts.min_bit = 0;
  cfg.fault_opts.max_bit = 5;
  const auto stats = run_model_campaign(session, cfg);
  EXPECT_GT(stats.masked, 0);
  EXPECT_EQ(stats.trials, stats.detected + stats.masked + stats.sdc);
}

TEST_F(ModelCampaignTest, MergeHandlesMismatchedLayerVectors) {
  // Regression: merge used to resize detections_per_layer only when
  // faults_per_layer was shorter, then index both by faults_per_layer's
  // length — mismatched-length partials read and wrote out of bounds.
  ModelCampaignStats a;
  a.trials = 3;
  a.faults_per_layer = {1, 2, 0};
  a.detections_per_layer = {1};  // shorter than its own faults vector
  ModelCampaignStats b;
  b.trials = 5;
  b.faults_per_layer = {0, 0, 5};
  b.detections_per_layer = {0, 0, 4};
  a.merge(b);
  EXPECT_EQ(a.trials, 8);
  EXPECT_EQ(a.faults_per_layer, (std::vector<std::int64_t>{1, 2, 5}));
  EXPECT_EQ(a.detections_per_layer, (std::vector<std::int64_t>{1, 0, 4}));

  // Longer-into-shorter the other way round, plus commutativity on
  // well-formed (equal-length) partials.
  ModelCampaignStats c;
  c.faults_per_layer = {7};
  c.detections_per_layer = {6, 1};
  ModelCampaignStats d;
  d.faults_per_layer = {1, 1};
  d.detections_per_layer = {1};
  ModelCampaignStats cd = c;
  cd.merge(d);
  ModelCampaignStats dc = d;
  dc.merge(c);
  EXPECT_EQ(cd, dc);
  EXPECT_EQ(cd.faults_per_layer, (std::vector<std::int64_t>{8, 1}));
  EXPECT_EQ(cd.detections_per_layer, (std::vector<std::int64_t>{7, 1}));
}

TEST_F(ModelCampaignTest, ClassifyCoversEveryOutcomeIncludingCheckerBugs) {
  Matrix<half_t> clean(1, 1);
  clean(0, 0) = half_t(1.0f);
  Matrix<half_t> corrupted(1, 1);
  corrupted(0, 0) = half_t(2.0f);

  const auto make_result = [&](int detections, bool unrecovered,
                               const Matrix<half_t>& output) {
    SessionResult result;
    result.output = output;
    LayerTrace trace;
    trace.detections = detections;
    trace.unrecovered = unrecovered;
    result.layers.push_back(trace);
    return result;
  };

  ModelCampaignStats stats;
  classify_model_trial(stats, 0, make_result(1, false, clean), clean);
  EXPECT_EQ(stats.recovered, 1);
  classify_model_trial(stats, 0, make_result(1, true, corrupted), clean);
  EXPECT_EQ(stats.unrecovered, 1);
  classify_model_trial(stats, 1, make_result(0, false, clean), clean);
  EXPECT_EQ(stats.masked, 1);
  classify_model_trial(stats, 1, make_result(0, false, corrupted), clean);
  EXPECT_EQ(stats.sdc, 1);

  // The hole the old code silently dropped: flagged, retried to a passing
  // check, yet the output is corrupted — only a buggy checker can produce
  // it, and it must be counted, not vanish from coverage tables.
  classify_model_trial(stats, 2, make_result(1, false, corrupted), clean);
  EXPECT_EQ(stats.detected_corrupted, 1);

  EXPECT_EQ(stats.trials, 5);
  EXPECT_EQ(stats.detected, 3);
  EXPECT_EQ(stats.faults_per_layer, (std::vector<std::int64_t>{2, 2, 1}));
  EXPECT_EQ(stats.detections_per_layer, (std::vector<std::int64_t>{2, 0, 1}));
  // Every trial lands in exactly one class.
  EXPECT_EQ(stats.trials, stats.recovered + stats.unrecovered + stats.masked +
                              stats.sdc + stats.detected_corrupted);

  // A result with no traces is unclassifiable.
  SessionResult empty;
  empty.output = clean;
  EXPECT_THROW(classify_model_trial(stats, 0, empty, clean),
               std::logic_error);
}

TEST_F(ModelCampaignTest, RealCampaignsNeverProduceDetectedCorrupted) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 32;
  cfg.fault_opts.min_bit = 10;
  cfg.fault_opts.max_bit = 29;
  EXPECT_EQ(run_model_campaign(session, cfg).detected_corrupted, 0);
}

TEST_F(ModelCampaignTest, RejectsEmptyCampaign) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW((void)run_model_campaign(session, cfg), std::logic_error);
}

TEST_F(ModelCampaignTest, BatchedCampaignMatchesSerialBitForBit) {
  // Trials as batch rows (grouped by faulted layer, marched through the
  // BatchExecutor) must reproduce the per-trial engines exactly — at any
  // batch size, including batches of one and batches larger than any
  // per-layer group.
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  ModelCampaignConfig cfg;
  cfg.trials = 24;
  cfg.fault_opts.min_bit = 10;  // include maskable low bits
  cfg.fault_opts.max_bit = 29;
  const auto serial = run_model_campaign_serial(session, cfg);
  for (const std::int64_t batch_rows : {1, 5, 16, 64}) {
    EXPECT_EQ(run_model_campaign_batched(session, cfg, batch_rows), serial)
        << "batch_rows=" << batch_rows;
  }
}

TEST_F(ModelCampaignTest, BatchedCampaignOnUnprotectedPolicyAgreesToo) {
  // No checker in the loop: classification rests purely on output
  // equality, so stacked execution must still be bit-identical.
  const auto session = session_for(ProtectionPolicy::none);
  ModelCampaignConfig cfg;
  cfg.trials = 20;
  cfg.fault_opts.min_bit = 20;
  cfg.fault_opts.max_bit = 29;
  EXPECT_EQ(run_model_campaign_batched(session, cfg, 8),
            run_model_campaign_serial(session, cfg));
}

TEST_F(ModelCampaignTest, BatchedCampaignRejectsBadBatchSize) {
  const auto session = session_for(ProtectionPolicy::intensity_guided);
  EXPECT_THROW((void)run_model_campaign_batched(session, {}, 0),
               std::logic_error);
}

}  // namespace
}  // namespace aift
