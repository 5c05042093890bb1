// Model-zoo tests: the anchor for the whole reproduction. Every aggregate
// arithmetic intensity the paper reports must be reproduced by these
// architecture definitions (Figure 4, Figure 8 labels, §3.2, §6.4.2).

#include "nn/zoo/zoo.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace aift {
namespace {

constexpr DType F16 = DType::f16;

// ---- DLRM: the paper's numbers are matched exactly (§3.2, Fig. 8/10) ------

TEST(ModelsDlrm, BottomBatch1Is7_4) {
  EXPECT_NEAR(zoo::dlrm_mlp_bottom(1).aggregate_intensity(F16), 7.4, 0.05);
}

TEST(ModelsDlrm, TopBatch1Is7_7) {
  EXPECT_NEAR(zoo::dlrm_mlp_top(1).aggregate_intensity(F16), 7.7, 0.05);
}

TEST(ModelsDlrm, BottomBatch2048Is92) {
  EXPECT_NEAR(zoo::dlrm_mlp_bottom(2048).aggregate_intensity(F16), 92.0, 0.1);
}

TEST(ModelsDlrm, TopBatch2048Is175_8) {
  EXPECT_NEAR(zoo::dlrm_mlp_top(2048).aggregate_intensity(F16), 175.8, 0.1);
}

TEST(ModelsDlrm, Batch256InPaperRange70To109) {
  // §3.2: "increase from 7 at batch size of 1 to 70-109 at batch size 256".
  EXPECT_NEAR(zoo::dlrm_mlp_bottom(256).aggregate_intensity(F16), 70.0, 0.5);
  EXPECT_NEAR(zoo::dlrm_mlp_top(256).aggregate_intensity(F16), 109.0, 1.0);
}

TEST(ModelsDlrm, LayerStructure) {
  const auto bottom = zoo::dlrm_mlp_bottom(1);
  ASSERT_EQ(bottom.num_layers(), 3u);  // 512, 256, 64 hidden nodes
  EXPECT_EQ(bottom.layers()[0].gemm.k, 13);
  EXPECT_EQ(bottom.layers()[0].gemm.n, 512);
  EXPECT_EQ(bottom.layers()[2].gemm.n, 64);
  const auto top = zoo::dlrm_mlp_top(1);
  ASSERT_EQ(top.num_layers(), 3u);  // 512, 256 hidden; one output
  EXPECT_EQ(top.layers()[2].gemm.n, 1);
}

// ---- General-purpose CNNs at HD (Figure 4 / Figure 8 labels) --------------

struct CnnCase {
  const char* name;
  Model (*build)(const ImageInput&);
  double paper_ai;
  std::size_t layer_count;
};

// Without a printer gtest prints GetParam() as the struct's raw bytes, which
// include the name and builder pointers; ASLR makes those, and so the test
// names that ctest discovers, differ on every build.
void PrintTo(const CnnCase& c, std::ostream* os) { *os << c.name; }

class CnnIntensity : public ::testing::TestWithParam<CnnCase> {};

INSTANTIATE_TEST_SUITE_P(
    Figure4, CnnIntensity,
    ::testing::Values(
        CnnCase{"SqueezeNet", zoo::squeezenet, 71.1, 26},
        CnnCase{"ShuffleNet", zoo::shufflenet_v2, 76.6, 57},
        CnnCase{"DenseNet-161", zoo::densenet161, 79.0, 161},
        CnnCase{"ResNet-50", zoo::resnet50, 122.0, 54},
        CnnCase{"AlexNet", zoo::alexnet, 125.5, 8},
        CnnCase{"VGG-16", zoo::vgg16, 155.5, 16},
        CnnCase{"ResNext-50", zoo::resnext50_ungrouped, 220.8, 54},
        CnnCase{"Wide-ResNet-50", zoo::wide_resnet50_2, 220.8, 54}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST_P(CnnIntensity, AggregateMatchesPaperAtHd) {
  const auto& c = GetParam();
  const auto m = c.build(zoo::hd_input(1));
  EXPECT_NEAR(m.aggregate_intensity(F16), c.paper_ai, c.paper_ai * 0.01)
      << m.name();
}

TEST_P(CnnIntensity, LayerCount) {
  const auto& c = GetParam();
  EXPECT_EQ(c.build(zoo::hd_input(1)).num_layers(), c.layer_count);
}

TEST_P(CnnIntensity, LowerIntensityAt224) {
  // §3.2: smaller inputs reduce aggregate intensity.
  const auto& c = GetParam();
  EXPECT_LT(c.build(zoo::imagenet_input(1)).aggregate_intensity(F16),
            c.build(zoo::hd_input(1)).aggregate_intensity(F16));
}

TEST(ModelsResNet, At224Is72) {
  // §3.2: "72 when operating over images of resolution 224x224 ...
  // increases to 122 ... 1080x1920".
  EXPECT_NEAR(zoo::resnet50(zoo::imagenet_input(1)).aggregate_intensity(F16),
              72.0, 1.0);
}

TEST(ModelsResNet, UngroupedResNextEqualsWideResNetLayerByLayer) {
  // Paper footnote 3 + Figure 4: both report 220.8 — ungrouped
  // ResNeXt-50 32x4d and Wide-ResNet-50-2 have identical GEMM inventories.
  const auto rx = zoo::resnext50_ungrouped(zoo::hd_input(1));
  const auto wr = zoo::wide_resnet50_2(zoo::hd_input(1));
  ASSERT_EQ(rx.num_layers(), wr.num_layers());
  for (std::size_t i = 0; i < rx.num_layers(); ++i) {
    EXPECT_EQ(rx.layers()[i].gemm, wr.layers()[i].gemm) << i;
  }
}

TEST(ModelsResNet, PerLayerIntensityRangeMatchesFigure5) {
  // Figure 5: per-layer intensities of ResNet-50 on HD span 1-511.
  const auto m = zoo::resnet50(zoo::hd_input(1));
  double lo = 1e18, hi = 0.0;
  for (const auto& l : m.layers()) {
    lo = std::min(lo, l.intensity(F16));
    hi = std::max(hi, l.intensity(F16));
  }
  EXPECT_LT(lo, 10.0);   // the FC layer is tiny (paper: down to ~1)
  EXPECT_GT(hi, 350.0);  // the big 3x3 convs (paper: up to 511)
  EXPECT_LT(hi, 600.0);
}

TEST(ModelsResNet, MixOfBoundClassesOnT4) {
  // §3.5: NNs contain *both* bandwidth- and compute-bound layers.
  const auto m = zoo::resnet50(zoo::hd_input(1));
  const double cmr = devices::t4().cmr(F16);
  int bw = 0, comp = 0;
  for (const auto& l : m.layers()) {
    (l.intensity(F16) < cmr ? bw : comp)++;
  }
  EXPECT_GT(bw, 0);
  EXPECT_GT(comp, 0);
}

TEST(ModelsResNet, StructureSpotChecks) {
  const auto m = zoo::resnet50(zoo::imagenet_input(1));
  // conv1: 112*112 x 64 x 147.
  EXPECT_EQ(m.layers()[0].gemm, (GemmShape{112 * 112, 64, 147}));
  // Final FC: 1 x 1000 x 2048.
  EXPECT_EQ(m.layers().back().gemm, (GemmShape{1, 1000, 2048}));
}

// ---- NoScope specialized CNNs (Figure 11 labels) ---------------------------

TEST(ModelsNoScope, AggregatesMatchPaper) {
  EXPECT_NEAR(zoo::noscope_coral(64).aggregate_intensity(F16), 15.1, 0.3);
  EXPECT_NEAR(zoo::noscope_roundabout(64).aggregate_intensity(F16), 37.9, 0.3);
  EXPECT_NEAR(zoo::noscope_taipei(64).aggregate_intensity(F16), 51.9, 0.3);
  EXPECT_NEAR(zoo::noscope_amsterdam(64).aggregate_intensity(F16), 52.7, 0.3);
}

TEST(ModelsNoScope, WithinPaperEnvelope) {
  // §6.2: 2-4 conv layers of 16-64 channels, at most two FC layers.
  for (const auto& m :
       {zoo::noscope_coral(64), zoo::noscope_roundabout(64),
        zoo::noscope_taipei(64), zoo::noscope_amsterdam(64)}) {
    int convs = 0, fcs = 0;
    for (const auto& l : m.layers()) {
      if (l.kind == LayerKind::conv2d) {
        ++convs;
        EXPECT_GE(l.gemm.n, 16) << m.name() << " " << l.name;
        EXPECT_LE(l.gemm.n, 64) << m.name() << " " << l.name;
      } else {
        ++fcs;
      }
    }
    EXPECT_GE(convs, 2) << m.name();
    EXPECT_LE(convs, 4) << m.name();
    EXPECT_LE(fcs, 2) << m.name();
  }
}

TEST(ModelsNoScope, BatchScalesIntensity) {
  EXPECT_LT(zoo::noscope_coral(1).aggregate_intensity(F16),
            zoo::noscope_coral(64).aggregate_intensity(F16));
}

// ---- Collections -----------------------------------------------------------

TEST(ModelCollections, Figure8HasAllFourteenModelsInIntensityOrder) {
  const auto models = zoo::figure8_models();
  ASSERT_EQ(models.size(), 14u);
  EXPECT_EQ(models.front().name(), "MLP-Bottom");
  EXPECT_EQ(models.back().name(), "Wide-ResNet-50");
  for (std::size_t i = 1; i < models.size(); ++i) {
    EXPECT_LE(models[i - 1].aggregate_intensity(F16),
              models[i].aggregate_intensity(F16) + 0.01)
        << models[i - 1].name() << " vs " << models[i].name();
  }
}

TEST(ModelCollections, GeneralCnnsHasEight) {
  EXPECT_EQ(zoo::general_cnns(zoo::hd_input(1)).size(), 8u);
}

TEST(ModelCollections, InputPresets) {
  EXPECT_EQ(zoo::hd_input(1).h, 1080);
  EXPECT_EQ(zoo::hd_input(1).w, 1920);
  EXPECT_EQ(zoo::imagenet_input(4).h, 224);
  EXPECT_EQ(zoo::imagenet_input(4).batch, 4);
}

// ---- Fusion flags (drive global ABFT's checksum-generation cost) ----------

TEST(ModelFusion, FirstLayerNotFusableForImageModels) {
  // Image models receive raw frames: no upstream linear layer can fuse the
  // first activation checksum. (DLRM's MLPs are the exception — their
  // inputs come from embedding/interaction kernels that can fuse it.)
  for (const auto& m : zoo::figure8_models()) {
    if (m.name() == "MLP-Bottom" || m.name() == "MLP-Top") {
      EXPECT_TRUE(m.layers().front().input_checksum_fusable) << m.name();
    } else {
      EXPECT_FALSE(m.layers().front().input_checksum_fusable) << m.name();
    }
  }
}

TEST(ModelFusion, PoolingBreaksFusion) {
  const auto m = zoo::resnet50(zoo::hd_input(1));
  // Layer 1 (layer1.0.conv1) follows the stem maxpool: not fusable.
  EXPECT_FALSE(m.layers()[1].input_checksum_fusable);
  // Layer 2 (layer1.0.conv2) follows conv1 directly: fusable.
  EXPECT_TRUE(m.layers()[2].input_checksum_fusable);
}

TEST(ModelFusion, MlpChainFullyFusable) {
  const auto m = zoo::dlrm_mlp_bottom(1);
  EXPECT_TRUE(m.layers()[0].input_checksum_fusable);  // upstream embedding
  EXPECT_TRUE(m.layers()[1].input_checksum_fusable);
  EXPECT_TRUE(m.layers()[2].input_checksum_fusable);
}

// ---- Builder ----------------------------------------------------------------

TEST(ModelBuilder, RejectsEmptyModel) {
  ModelBuilder b("empty", ImageInput{1, 3, 32, 32});
  EXPECT_THROW(std::move(b).build(), std::logic_error);
}

TEST(ModelBuilder, LinearRequiresFlatten) {
  ModelBuilder b("bad", ImageInput{1, 3, 32, 32});
  EXPECT_THROW(b.linear("fc", 10), std::logic_error);
}

TEST(ModelBuilder, ConvAfterFlattenRejected) {
  ModelBuilder b("bad", ImageInput{1, 3, 32, 32});
  b.flatten();
  EXPECT_THROW(b.conv("c", 8, 3), std::logic_error);
}

TEST(ModelBuilder, StateRestoreRoundTrip) {
  ModelBuilder b("branchy", ImageInput{1, 3, 32, 32});
  b.conv("c1", 8, 3);
  const auto s = b.state();
  b.conv("c2", 16, 3, 2);
  EXPECT_EQ(b.channels(), 16);
  b.restore(s);
  EXPECT_EQ(b.channels(), 8);
  EXPECT_EQ(b.height(), 32);
}

TEST(ModelTotals, FlopsAndBytesArePerLayerSums) {
  const auto m = zoo::dlrm_mlp_bottom(1);
  std::int64_t flops = 0, bytes = 0;
  for (const auto& l : m.layers()) {
    flops += l.flops();
    bytes += l.bytes(F16);
  }
  EXPECT_EQ(m.total_flops(), flops);
  EXPECT_EQ(m.total_bytes(F16), bytes);
}

}  // namespace
}  // namespace aift
