// Reproduces Table III: "Inference processing time of video frames broken
// into stages" — the generic Darknet float path on the modeled 4xA53
// platform (one core active), totalling ~10s per frame (0.1 fps).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/rng.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "lowp_oracle.hpp"
#include "nn/zoo.hpp"
#include "perf/stage_times.hpp"

using namespace tincy;
using nn::zoo::CpuProfile;
using nn::zoo::QuantMode;
using nn::zoo::TinyVariant;

namespace {

template <typename F>
double best_of_ms(int trials, F&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

// Host-measured complement to the modeled table: the CPU-resident input
// and output layers (L0 and L13 of zoo:tincy-w1a3 at 416) through the
// 8-bit conv driver against its naive form (dense im2col +
// gemm_lowp_i32 + the same bias epilogue), checked bit for bit, with the
// one-time weight pack reported separately.
void report_lowp_driver() {
  const struct {
    const char* name;
    gemm::ConvGeometry g;
    int64_t M;
  } shapes[] = {
      {"Input Layer", {3, 416, 416, 3, 2, 1}, 16},
      {"Output Layer", {512, 13, 13, 1, 1, 0}, 125},
  };
  std::printf(
      "\nHOST-MEASURED CPU 8-BIT CONV (naive vs the conv driver, best of 5)\n");
  std::printf("%-20s %10s %10s %9s %9s %10s\n", "Stage", "Naive ms",
              "Driver ms", "Pack ms", "Speedup", "Bit-exact");
  for (const auto& s : shapes) {
    const int64_t K = s.g.patch_size(), n = s.g.num_patches();
    Rng rng(7);
    std::vector<uint8_t> a(s.M * K),
        image(s.g.in_channels * s.g.in_height * s.g.in_width);
    for (auto& v : a) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : image) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    std::vector<float> bias(s.M);
    for (auto& v : bias) v = rng.normal();
    const quant::AffineParams in_params{0.02f, 131}, w_params{0.01f, 7};
    const float real_scale = in_params.scale * w_params.scale;
    std::vector<int32_t> acc(s.M * n);
    std::vector<float> want(s.M * n), got(s.M * n);
    const double naive_ms = best_of_ms(5, [&] {
      oracle::lowp_conv_naive(image.data(), s.g, a.data(), s.M,
                              w_params.zero_point, in_params.zero_point,
                              acc.data());
      for (int64_t m = 0; m < s.M; ++m)
        for (int64_t j = 0; j < n; ++j)
          want[m * n + j] =
              oracle::lowp_bias_epilogue(real_scale, acc[m * n + j], bias[m]);
    });
    const double pack_ms = best_of_ms(5, [&] {
      (void)gemm::pack_lhs(a.data(), s.M, K, w_params.zero_point);
    });
    const gemm::PackedLhs lhs =
        gemm::pack_lhs(a.data(), s.M, K, w_params.zero_point);
    gemm::LowpEpilogue epilogue;
    epilogue.bias = bias.data();
    const double driver_ms = best_of_ms(5, [&] {
      gemm::fused_conv_lowp_f32out(image.data(), s.g, in_params, lhs,
                                   w_params, epilogue, got.data());
    });
    const bool exact =
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) == 0;
    std::printf("%-20s %10.3f %10.3f %9.3f %8.2fx %10s\n", s.name, naive_ms,
                driver_ms, pack_ms, naive_ms / driver_ms,
                exact ? "yes" : "NO");
  }
}

}  // namespace

int main() {
  const perf::ZynqPlatform platform;
  const auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      TinyVariant::kTiny, QuantMode::kFloat, 416, CpuProfile::kReference));
  const perf::StageTimes t = perf::model_stage_times(
      *net, platform, perf::FirstLayerImpl::kGeneric,
      perf::HiddenImpl::kGeneric);

  std::printf(
      "TABLE III — INFERENCE PROCESSING TIME OF VIDEO FRAMES BY STAGE\n");
  std::printf("%-20s %10s %10s\n", "Stage", "Paper ms", "Model ms");
  const struct {
    const char* name;
    double paper;
    double model;
  } rows[] = {
      {"Image Acquisition", 40, t.acquisition_ms},
      {"Input Layer", 620, t.input_layer_ms},
      {"Max Pool", 140, t.first_pool_ms},
      {"Hidden Layers", 9160, t.hidden_layers_ms},
      {"Output Layer", 30, t.output_layer_ms},
      {"Box Drawing", 15, t.box_drawing_ms},
      {"Image Output", 25, t.image_output_ms},
  };
  for (const auto& r : rows)
    std::printf("%-20s %10.0f %10.1f\n", r.name, r.paper, r.model);
  std::printf("%-20s %10.0f %10.1f\n", "Total", 10030.0, t.total_ms());
  std::printf("\nFrame rate: paper 0.1 fps, model %.3f fps\n", t.fps());
  std::printf(
      "(The scalar-GEMM/im2col/pool rates are calibrated against this very\n"
      "table — see perf/platform.hpp and EXPERIMENTS.md; every other\n"
      "configuration in the ladder is then *predicted* from those rates.)\n");
  report_lowp_driver();
  return 0;
}
