#include <gtest/gtest.h>

#include "nn/zoo.hpp"
#include "perf/ladder.hpp"
#include "perf/platform.hpp"
#include "perf/stage_times.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::perf {
namespace {

using nn::zoo::CpuProfile;
using nn::zoo::QuantMode;
using nn::zoo::TinyVariant;

std::unique_ptr<nn::Network> tiny() {
  return nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      TinyVariant::kTiny, QuantMode::kFloat, 416, CpuProfile::kReference));
}

std::unique_ptr<nn::Network> tincy() {
  return nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      TinyVariant::kTincy, QuantMode::kFloat, 416, CpuProfile::kReference));
}

TEST(StageTimes, TableThreeShape) {
  // The calibrated model must land near the paper's Table III rows.
  const ZynqPlatform p;
  const auto net = tiny();
  const StageTimes t = model_stage_times(*net, p, FirstLayerImpl::kGeneric,
                                         HiddenImpl::kGeneric);
  EXPECT_NEAR(t.acquisition_ms, 40.0, 1e-9);
  EXPECT_NEAR(t.input_layer_ms, 620.0, 80.0);
  EXPECT_NEAR(t.first_pool_ms, 140.0, 25.0);
  EXPECT_NEAR(t.hidden_layers_ms, 9160.0, 900.0);
  EXPECT_NEAR(t.output_layer_ms, 30.0, 25.0);
  EXPECT_NEAR(t.total_ms(), 10030.0, 1000.0);
  EXPECT_NEAR(t.fps(), 0.1, 0.02);
}

TEST(StageTimes, FabricHiddenAroundThirtyMs) {
  const ZynqPlatform p;
  const auto net = tiny();
  const double ms = fabric_hidden_ms(*net, p);
  // Paper: "reduces the processing time of all hidden layers together to
  // 30 ms" — a >300x speedup over the 9,160 ms CPU path.
  EXPECT_GT(ms, 10.0);
  EXPECT_LT(ms, 60.0);
  const StageTimes generic = model_stage_times(
      *net, p, FirstLayerImpl::kGeneric, HiddenImpl::kGeneric);
  EXPECT_GT(generic.hidden_layers_ms / ms, 150.0);
}

TEST(StageTimes, FirstLayerLadder) {
  const ZynqPlatform p;
  const auto net = tiny();
  const auto ms = [&](FirstLayerImpl impl) {
    return model_stage_times(*net, p, impl, HiddenImpl::kFabric)
        .input_layer_ms;
  };
  const double generic = ms(FirstLayerImpl::kGeneric);
  // §III-D progression: 620 → 280 → … → 160 → 140 → 120 ms.
  EXPECT_NEAR(ms(FirstLayerImpl::kLowpGemm), generic / 2.2, 1.0);
  EXPECT_NEAR(ms(FirstLayerImpl::kSpecF32), generic * 160.0 / 620.0, 1.0);
  EXPECT_GT(ms(FirstLayerImpl::kSpecAcc32), ms(FirstLayerImpl::kSpecAcc16));
}

TEST(StageTimes, AlgorithmicSimplificationLeanConv) {
  // Modification (d): stride-2 first conv needs ~35 ms instead of 120 ms
  // and eliminates the 140 ms first pool.
  const ZynqPlatform p;
  const auto net = tincy();
  const StageTimes t = model_stage_times(*net, p, FirstLayerImpl::kSpecAcc16,
                                         HiddenImpl::kFabric);
  EXPECT_NEAR(t.input_layer_ms, 35.0, 12.0);
  EXPECT_DOUBLE_EQ(t.first_pool_ms, 0.0);
}

TEST(Ladder, ReproducesPaperProgression) {
  const ZynqPlatform p;
  const auto ladder = optimization_ladder(p);
  ASSERT_EQ(ladder.size(), 9u);

  // Essentially monotone frame rate along the ladder. Steps 3 and 4 are
  // *alternative* first-layer attempts in the paper (gemmlowp 2.2x vs
  // fused float 2.1x), so a small dip between them is faithful.
  for (size_t i = 1; i < ladder.size(); ++i)
    EXPECT_GE(ladder[i].fps, ladder[i - 1].fps * 0.95) << ladder[i].name;

  EXPECT_NEAR(ladder[0].fps, 0.1, 0.02);       // generic: 0.1 fps
  EXPECT_NEAR(ladder[1].fps, 1.1, 0.4);        // fabric: "just above 1 fps"
  EXPECT_NEAR(ladder[6].fps, 2.5, 0.6);        // acc16: 400 ms → 2.5 fps
  EXPECT_NEAR(ladder[7].fps, 5.8, 1.5);        // Tincy: "more than 5 fps"
  EXPECT_NEAR(ladder[8].fps, 16.0, 3.0);       // pipelined: 16 fps
  EXPECT_NEAR(ladder[8].speedup_total, 160.0, 40.0);  // overall 160x
}

TEST(Ladder, NetElevenTimesSpeedupFromFabric) {
  const ZynqPlatform p;
  const auto ladder = optimization_ladder(p);
  // "the net effect reduces to a 11x speedup".
  EXPECT_NEAR(ladder[1].speedup_total, 11.0, 3.5);
}

TEST(Ladder, PipelineAlmostThreefold) {
  const ZynqPlatform p;
  const auto ladder = optimization_ladder(p);
  // "almost a threefold speedup" from pipelining.
  EXPECT_GT(ladder[8].speedup_previous, 2.0);
  EXPECT_LT(ladder[8].speedup_previous, 4.0);
}

TEST(PipelinedStages, AccountsForExclusivePl) {
  const ZynqPlatform p;
  const auto net = tincy();
  const StageTimes t = model_stage_times(*net, p, FirstLayerImpl::kSpecAcc16,
                                         HiddenImpl::kFabric);
  const auto stages = pipelined_stages(p, t);
  int pl_stages = 0;
  for (const auto& s : stages)
    if (!s.exclusive_resource.empty()) ++pl_stages;
  EXPECT_EQ(pl_stages, 1);
  // Fig. 5: four stages longer than the "network" portion; here the
  // network collapses into 3 stages (input, PL, output) + 4 = 7.
  EXPECT_EQ(stages.size(), 7u);
}

TEST(Ladder, LeavesTheGlobalRegistryAlone) {
  // The ladder only describes its zoo networks; building them must not add
  // (empty) net.layer.<i> histograms to the process-wide registry, which a
  // metrics export would then carry.
  auto names = [] {
    std::vector<std::string> out;
    for (const auto& h :
         telemetry::MetricsRegistry::global().snapshot().histograms)
      out.push_back(h.name);
    return out;
  };
  // Earlier tests built zoo networks into the registry under the same
  // names; none of them is alive any more, so their metrics can go.
  telemetry::MetricsRegistry::global().remove("net.");
  const std::vector<std::string> before = names();
  const auto ladder = optimization_ladder(ZynqPlatform{});
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(names(), before);
}

}  // namespace
}  // namespace tincy::perf
