#include "perf/ladder.hpp"

#include "nn/builder.hpp"
#include "nn/zoo.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::perf {

std::vector<pipeline::TimedStage> pipelined_stages(
    const ZynqPlatform& platform, const StageTimes& times) {
  // §III-F: "the biggest chunks of the overall computation were further
  // split into smaller pieces" — image acquisition becomes camera access
  // plus letterboxing; the offload wrapper is stripped to a tight PL call.
  const double o = platform.pipeline_sync_overhead_ms;
  std::vector<pipeline::TimedStage> stages;
  stages.push_back({"camera_access", times.acquisition_ms / 2 + o, ""});
  stages.push_back({"letterboxing", times.acquisition_ms / 2 + o, ""});
  stages.push_back(
      {"input_layer", times.input_layer_ms + times.first_pool_ms + o, ""});
  stages.push_back({"hidden_layers[PL]", times.hidden_layers_ms + o, "PL"});
  stages.push_back({"output_layer", times.output_layer_ms + o, ""});
  stages.push_back({"object_boxing", times.box_drawing_ms + o, ""});
  stages.push_back({"image_output", times.image_output_ms + o, ""});
  return stages;
}

std::vector<LadderStep> optimization_ladder(const ZynqPlatform& platform) {
  using nn::zoo::CpuProfile;
  using nn::zoo::QuantMode;
  using nn::zoo::TinyVariant;

  // The networks are only described, never run: their per-layer
  // histograms go to a registry of their own, not the process-wide one.
  telemetry::MetricsRegistry unused;
  const auto tiny = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(TinyVariant::kTiny, QuantMode::kFloat, 416,
                             CpuProfile::kReference),
      &unused);
  const auto tincy = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat, 416,
                             CpuProfile::kReference),
      &unused);

  struct Config {
    std::string name;
    const nn::Network* net;
    FirstLayerImpl first;
    HiddenImpl hidden;
  };
  const Config configs[] = {
      {"generic Darknet inference (Tiny YOLO, float)", tiny.get(),
       FirstLayerImpl::kGeneric, HiddenImpl::kGeneric},
      {"+ FINN fabric offload of hidden layers (W1A3)", tiny.get(),
       FirstLayerImpl::kGeneric, HiddenImpl::kFabric},
      {"+ gemmlowp 8-bit input layer", tiny.get(), FirstLayerImpl::kLowpGemm,
       HiddenImpl::kFabric},
      {"+ fused NEON im2col+GEMM (float)", tiny.get(),
       FirstLayerImpl::kFusedF32, HiddenImpl::kFabric},
      {"+ specialized 16x27 kernel (float)", tiny.get(),
       FirstLayerImpl::kSpecF32, HiddenImpl::kFabric},
      {"+ 16x27 kernel, 8-bit, 32-bit accumulators", tiny.get(),
       FirstLayerImpl::kSpecAcc32, HiddenImpl::kFabric},
      {"+ 16x27 kernel, 8-bit, 16-bit accumulators", tiny.get(),
       FirstLayerImpl::kSpecAcc16, HiddenImpl::kFabric},
      {"+ algorithmic simplification (Tincy YOLO)", tincy.get(),
       FirstLayerImpl::kSpecAcc16, HiddenImpl::kFabric},
  };

  std::vector<LadderStep> ladder;
  for (const auto& c : configs) {
    LadderStep step;
    step.name = c.name;
    step.times = model_stage_times(*c.net, platform, c.first, c.hidden);
    step.fps = step.times.fps();
    ladder.push_back(std::move(step));
  }

  // Step 9: the pipelined demo mode over the final sequential times.
  {
    LadderStep step;
    step.name = "+ pipelined demo mode (4 cores)";
    step.times = ladder.back().times;
    step.pipelined = true;
    const auto stages = pipelined_stages(platform, step.times);
    const auto sim =
        pipeline::simulate(stages, platform.cores, /*num_frames=*/64);
    step.fps = sim.fps;
    ladder.push_back(std::move(step));
  }

  for (size_t i = 0; i < ladder.size(); ++i) {
    ladder[i].speedup_total = ladder[i].fps / ladder.front().fps;
    ladder[i].speedup_previous =
        i == 0 ? 1.0 : ladder[i].fps / ladder[i - 1].fps;
  }
  return ladder;
}

}  // namespace tincy::perf
