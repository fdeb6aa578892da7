// Self-checking bench of the bit-serial dot-product kernel
// (gemm/bitserial.hpp) and of the one threaded driver over it
// (gemm::run_code_layer):
//
//   bitserial_kernels [out.json]
//
// 1. Two Tincy YOLO layers at 416 on their real geometry (3×3, pad 1),
//    random ±1 weights, A3 codes and thresholds: layer 11 (512 filters
//    over a 512 × 13 × 13 map: M=512, K=4608, N=169) and layer 1 (64
//    filters over a 16 × 208 × 208 map: M=64, K=144, N=43,264). For each:
//    the scalar oracle on Darknet im2col columns; every popcount variant's
//    tile kernel on one thread, 16 columns per call as the engine's bands
//    hand them over, on the columns pixel_planes + patch_columns build,
//    checked against the oracle's accumulators; and the dispatched
//    variant threaded, as gemm::run_code_layer (the band gather, the tile
//    kernel and the threshold table), checked against the oracle's
//    accumulators thresholded by quant::ThresholdChannel::apply.
// 2. The W1A3 hidden stack (layers 1–12 of zoo:tincy-w1a3 at 416, random
//    weights) on the golden model, layer by layer.
//
// Gate: every variant matches the oracle on both layers, and
// run_code_layer on layer 11 is at least 50× faster than the scalar
// oracle. Writes the measurements, with the steal time the host reported
// while they ran, to out.json (default BENCH_bitserial.json).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/bitserial.hpp"
#include "gemm/code_layer.hpp"
#include "gemm/im2col.hpp"
#include "nn/conv_layer.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"

using namespace tincy;

namespace {

/// Columns per tile-kernel call, as run_code_layer's bands make them.
constexpr int64_t kBlock = 16;

/// Steal time of all CPUs so far, in seconds (0 where not reported).
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (long long& x : v)
    if (!(stat >> x)) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

template <typename F>
double best_of_ms(int trials, F&& fn) {
  fn();  // untimed warm-up: scratch arenas, pool threads, caches
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// One layer's row: its JSON, whether every variant and the threaded
/// call matched the oracle, and the oracle's and the threaded call's
/// times.
struct ShapeResult {
  std::string json;
  bool pass = true;
  double oracle_ms = 0.0;
  double threaded_ms = 0.0;
};

/// Times the oracle, every variant's tile kernel on one thread and
/// run_code_layer on an M-filter 3×3, pad-1 conv over a C × H × W map.
ShapeResult bench_shape(const char* name, int64_t M, int64_t C, int64_t H,
                        int64_t W, int bits, Rng& rng) {
  const int kTrials = 5;
  const gemm::ConvGeometry g{C, H, W, 3, 1, 1};
  const int64_t K = g.patch_size(), N = g.num_patches();
  std::vector<int8_t> wv(static_cast<size_t>(M * K));
  Tensor w(Shape{M, K});
  for (int64_t i = 0; i < w.numel(); ++i) {
    wv[static_cast<size_t>(i)] = rng.bernoulli(0.5) ? 1 : -1;
    w[i] = wv[static_cast<size_t>(i)];
  }
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(quant::binarize(w), g.kernel);
  // Thresholds spread over the accumulators' range, either direction.
  const double spread =
      1.5 * ((1 << bits) - 1) * std::sqrt(static_cast<double>(K));
  std::vector<quant::ThresholdChannel> channels(static_cast<size_t>(M));
  for (auto& ch : channels) {
    for (int k = 0; k < (1 << bits) - 1; ++k)
      ch.thresholds.push_back(
          static_cast<int32_t>(rng.uniform(-spread, spread)));
    std::sort(ch.thresholds.begin(), ch.thresholds.end());
    ch.ascending = rng.bernoulli(0.5);
  }
  const gemm::ThresholdTable table(channels);

  // One random code map, CHW for Darknet's im2col and HWC for the engine.
  const int64_t pixels = H * W;
  std::vector<uint8_t> chw(static_cast<size_t>(C * pixels)), hwc(chw.size());
  const int top = (1 << bits) - 1;
  for (int64_t c = 0; c < C; ++c)
    for (int64_t p = 0; p < pixels; ++p) {
      const auto code = static_cast<uint8_t>(rng.uniform_int(0, top));
      chw[static_cast<size_t>(c * pixels + p)] = code;
      hwc[static_cast<size_t>(p * C + c)] = code;
    }
  // The oracle reads Darknet-order columns (c·K² + t), column j at j·K.
  std::vector<uint8_t> codes(static_cast<size_t>(N * K));
  {
    std::vector<uint8_t> cm(codes.size());
    gemm::im2col<uint8_t>(chw.data(), g, cm.data(), 0);
    for (int64_t k = 0; k < K; ++k)
      for (int64_t j = 0; j < N; ++j)
        codes[static_cast<size_t>(j * K + k)] =
            cm[static_cast<size_t>(k * N + j)];
  }
  // The tile kernel's columns, as a band builds them (here the whole map).
  const int64_t col_words = bits * gemm::bitplane_words(K);
  std::vector<uint64_t> planes(static_cast<size_t>(N * col_words));
  {
    std::vector<uint64_t> pix(
        static_cast<size_t>(gemm::pixel_plane_words(g, bits, H)));
    gemm::pixel_planes(hwc.data(), g, bits, 0, H, pix.data());
    gemm::patch_columns(pix.data(), 0, g, bits, 0, N, planes.data());
  }

  ShapeResult res;
  std::vector<int32_t> expected(static_cast<size_t>(N * M));
  res.oracle_ms = best_of_ms(1, [&] {
    gemm::bitserial_gemm_reference(wv.data(), M, K, codes.data(), N, false,
                                   expected.data());
  });
  std::vector<uint8_t> expected_codes(expected.size());
  for (size_t i = 0; i < expected.size(); ++i)
    expected_codes[i] = channels[i % static_cast<size_t>(M)].apply(expected[i]);

  const gemm::BitSerialTileArgs args =
      gemm::tile_args(packed, bits, /*bipolar=*/false);
  std::ostringstream js;
  js << "\"" << name << "\": {\"M\": " << M << ", \"C\": " << C
     << ", \"H\": " << H << ", \"W\": " << W << ", \"K\": " << K
     << ", \"N\": " << N << ", \"bits\": " << bits
     << ", \"scalar_oracle_ms\": " << res.oracle_ms << ", \"variants\": [";
  std::printf("%s (M=%lld K=%lld N=%lld A%d)\n", name,
              static_cast<long long>(M), static_cast<long long>(K),
              static_cast<long long>(N), bits);
  std::printf("  %-26s %12s  parity\n", "", "ms");
  std::printf("  %-26s %12.2f  oracle\n", "scalar", res.oracle_ms);
  const auto variants = gemm::dispatchable_popcount_kernels();
  for (size_t v = 0; v < variants.size(); ++v) {
    const gemm::PopcountKernel k = variants[v];
    const gemm::BitSerialFn fn = gemm::bitserial_kernel(k);
    // The tile entry point on one thread, block by block.
    std::vector<int32_t> single(expected.size()), block(kBlock * M);
    const auto blocks = [&](bool keep) {
      for (int64_t j0 = 0; j0 < N; j0 += kBlock) {
        const int64_t count = std::min(kBlock, N - j0);
        fn(args, planes.data() + j0 * col_words, count, block.data());
        if (keep)
          std::copy(block.begin(), block.begin() + count * M,
                    single.begin() + j0 * M);
      }
    };
    blocks(true);
    const double single_ms = best_of_ms(kTrials, [&] { blocks(false); });
    const bool exact = single == expected;
    res.pass = res.pass && exact;
    std::printf("  %-26s %12.2f  %s\n",
                (std::string(gemm::kernel_name(k)) + " tile, 1 thread").c_str(),
                single_ms, exact ? "exact" : "MISMATCH");
    js << (v ? ", " : "") << "{\"kernel\": \"" << gemm::kernel_name(k)
       << "\", \"single_thread_ms\": " << single_ms
       << ", \"bit_exact\": " << (exact ? "true" : "false") << "}";
  }

  // The dispatched variant threaded: the layer as the engine runs it.
  gemm::CodeLayer layer;
  layer.geom = g;
  layer.bits = bits;
  layer.weights = &packed;
  layer.thresholds = &table;
  std::vector<uint8_t> got(expected_codes.size());
  res.threaded_ms = best_of_ms(kTrials, [&] {
    gemm::run_code_layer(layer, hwc.data(), 1, got.data());
  });
  const bool exact = got == expected_codes;
  res.pass = res.pass && exact;
  std::printf("  %-26s %12.2f  %s\n", "run_code_layer, threaded",
              res.threaded_ms, exact ? "exact" : "MISMATCH");
  js << "], \"run_code_layer_ms\": " << res.threaded_ms
     << ", \"run_code_layer_bit_exact\": " << (exact ? "true" : "false")
     << ", \"threaded_speedup_vs_oracle\": "
     << res.oracle_ms / res.threaded_ms << "}";
  res.json = js.str();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_bitserial.json";
  const double kMinSpeedup = 50.0;
  const double steal0 = steal_seconds();
  Rng rng(11);
  const int threads = core::ThreadPool::shared().threads();
  const gemm::PopcountKernel dispatched =
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto);
  std::printf("%d threads, dispatched %s\n", threads,
              gemm::kernel_name(dispatched));
  const ShapeResult l11 = bench_shape("layer11", 512, 512, 13, 13, 3, rng);
  const double speedup = l11.oracle_ms / l11.threaded_ms;
  std::printf("  run_code_layer (%s): %.0fx the scalar oracle (gate >= "
              "%.0fx)\n",
              gemm::kernel_name(dispatched), speedup, kMinSpeedup);
  const ShapeResult l1 = bench_shape("layer1", 64, 16, 208, 208, 3, rng);
  const bool pass = l11.pass && l1.pass && speedup >= kMinSpeedup;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-bitserial-v3\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
     << "\",\n  " << l11.json << ",\n  " << l1.json << ",\n";

  // Golden hidden stack of the W1A3 network at 416, layer by layer.
  auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 416,
      nn::zoo::CpuProfile::kOptimized));
  nn::zoo::randomize(*net, rng);
  Tensor x(net->layer_input_shape(1));
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 2.0f);
  double hidden_ms = 0.0;
  js << "  \"w1a3_416_hidden\": {\"layers\": [";
  std::printf("W1A3 hidden stack at 416 (golden model)\n");
  for (int64_t i = 1; i <= 12; ++i) {
    const Tensor in = x;
    const double ms = best_of_ms(3, [&] { x = net->run_layer(i, in); });
    hidden_ms += ms;
    std::printf("  L%-2lld %-14s %8.2f ms\n", static_cast<long long>(i),
                net->layer(i).type_name().c_str(), ms);
    js << (i > 1 ? ", " : "") << "{\"layer\": " << i << ", \"type\": \""
       << net->layer(i).type_name() << "\", \"ms\": " << ms << "}";
  }
  const double steal = steal_seconds() - steal0;
  js << "], \"total_ms\": " << hidden_ms << "},\n"
     << "  \"steal_s\": " << steal << ",\n"
     << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("  hidden stack total %.1f ms\nsteal %.2f s (all CPUs)\n",
              hidden_ms, steal);

  std::ofstream out(json_path);
  out << js.str();
  if (!out) {
    std::fprintf(stderr, "bitserial bench: cannot write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n%s\n", json_path, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
