// Accelerator timing study: per-layer cycle breakdown for the Tincy YOLO
// hidden layers under the default folding (the paper's "30 ms for all
// hidden layers"), a PE/SIMD folding sweep with the resource model, and
// host microbenchmarks of one MVTU column on the code-domain layer engine
// (gemm::run_code_layer, which the accelerator runs per stage).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/rng.hpp"
#include "fabric/folding.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/resource_model.hpp"
#include "gemm/code_layer.hpp"
#include "nn/zoo.hpp"
#include "perf/stage_times.hpp"

using namespace tincy;

namespace {

void print_cycle_tables() {
  const perf::ZynqPlatform platform;
  const auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kFloat, 416,
      nn::zoo::CpuProfile::kReference));

  std::printf("FABRIC — TINCY YOLO HIDDEN LAYERS ON THE QNN ACCELERATOR\n\n");
  std::printf("default folding PE=%lld SIMD=%lld @ %.0f MHz\n",
              static_cast<long long>(platform.fabric_model.folding.pe),
              static_cast<long long>(platform.fabric_model.folding.simd),
              platform.fabric_model.clock_mhz);
  std::printf("modeled time for all hidden layers: %.1f ms  (paper: 30 ms)\n\n",
              perf::fabric_hidden_ms(*net, platform));

  std::printf("folding sweep (hidden-layer ms vs engine LUTs/BRAM, XCZU3EG):\n");
  std::printf("%6s %6s %10s %10s %8s %8s\n", "PE", "SIMD", "hidden ms",
              "LUTs", "BRAM36", "fits");
  const fabric::Device device;
  for (const auto& [pe, simd] :
       {std::pair<int64_t, int64_t>{8, 9}, {16, 18}, {32, 36}, {64, 36},
        {64, 72}}) {
    perf::ZynqPlatform p = platform;
    p.fabric_model.folding = {pe, simd};
    fabric::EngineSpec spec;
    spec.folding = p.fabric_model.folding;
    spec.act_bits = 3;
    spec.max_rows = 512;
    spec.max_depth = 4608;
    spec.weight_bits_on_chip = 512 * 4608;
    const fabric::Resources r = fabric::estimate_engine(spec);
    std::printf("%6lld %6lld %10.1f %10lld %8lld %8s\n",
                static_cast<long long>(pe), static_cast<long long>(simd),
                perf::fabric_hidden_ms(*net, p), static_cast<long long>(r.luts),
                static_cast<long long>(r.bram36),
                fabric::fits(r, device) ? "yes" : "NO");
  }
  std::printf("\n");
}

/// An MVTU over rows × cols weights, cols = C·3² (a 3×3 conv's patch).
fabric::Mvtu make_mvtu(int64_t rows, int64_t cols) {
  Rng rng(5);
  Tensor w(Shape{rows, cols});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  std::vector<fabric::ThresholdChannel> th(static_cast<size_t>(rows));
  for (auto& ch : th)
    for (int k = 1; k <= 7; ++k) ch.thresholds.push_back(k * 3);
  return fabric::Mvtu(quant::binarize(w), th, 3,
                      fabric::ActEncoding::kUnsigned, /*kernel=*/3);
}

void BM_MvtuColumn(benchmark::State& state) {
  const int64_t rows = state.range(0), cols = state.range(1);
  const fabric::Mvtu mvtu = make_mvtu(rows, cols);
  // One column: the single 3×3 footprint of a 3×3, cols/9-channel map.
  gemm::CodeLayer layer;
  layer.geom = {cols / 9, 3, 3, 3, 1, 0};
  layer.bits = 3;
  layer.weights = &mvtu.weights();
  layer.thresholds = &mvtu.thresholds();
  Rng rng(6);
  std::vector<uint8_t> column(static_cast<size_t>(cols));
  for (auto& c : column) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<uint8_t> out(static_cast<size_t>(rows));
  for (auto _ : state) {
    gemm::run_code_layer(layer, column.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_cycles"] = static_cast<double>(
      mvtu.cycles_per_column({32, 36}));
}
BENCHMARK(BM_MvtuColumn)->Args({64, 144})->Args({256, 1152})->Args({512, 4608});

}  // namespace

int main(int argc, char** argv) {
  print_cycle_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
