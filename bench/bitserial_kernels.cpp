// Self-checking bench of the bit-serial dot-product kernel
// (gemm/bitserial.hpp):
//
//   bitserial_kernels [out.json]
//
// 1. Two Tincy YOLO layer shapes at 416, random ±1 weights and A3 codes:
//    layer 11 (512 filters over 512 channels, 3×3, 13×13 output: M=512,
//    K=4608, N=169) and layer 1 (64 filters over 16 channels, 3×3,
//    208×208 output: M=64, K=144, N=43,264). For each: the scalar
//    oracle, then every popcount variant's tile kernel on one thread (in
//    the 16-column blocks the threaded call uses) and the full threaded
//    call, each checked bit for bit against the oracle.
// 2. The W1A3 hidden stack (layers 1–12 of zoo:tincy-w1a3 at 416, random
//    weights) on the golden model, layer by layer.
//
// Gate: every variant matches the oracle on both shapes and the
// dispatched threaded call is at least 50× faster than the scalar oracle
// on layer 11. Writes the measurements to out.json (default
// BENCH_bitserial.json).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/bitserial.hpp"
#include "nn/conv_layer.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"

using namespace tincy;

namespace {

/// Columns per block, as bitserial_gemm hands them to the tile kernel.
constexpr int64_t kBlock = 16;

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

/// One layer shape's row: its JSON, whether every variant matched the
/// oracle, and the oracle's and the dispatched threaded call's times.
struct ShapeResult {
  std::string json;
  bool pass = true;
  double oracle_ms = 0.0;
  double dispatched_ms = 0.0;
};

/// Times the oracle, then every variant on one thread and threaded.
ShapeResult bench_shape(const char* name, int64_t M, int64_t C, int64_t N,
                        int bits, Rng& rng) {
  const int kTrials = 5;
  const int64_t kernel = 3, K = C * kernel * kernel;
  std::vector<int8_t> wv(static_cast<size_t>(M * K));
  Tensor w(Shape{M, K});
  for (int64_t i = 0; i < w.numel(); ++i) {
    wv[static_cast<size_t>(i)] = rng.bernoulli(0.5) ? 1 : -1;
    w[i] = wv[static_cast<size_t>(i)];
  }
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(quant::binarize(w), kernel);
  std::vector<uint8_t> codes(static_cast<size_t>(N * K));
  const int top = (1 << bits) - 1;
  for (auto& c : codes) c = static_cast<uint8_t>(rng.uniform_int(0, top));
  gemm::ConvGeometry one;  // one column = one 3×3 footprint
  one.in_channels = C;
  one.in_height = one.in_width = one.kernel = kernel;
  const int64_t col_words = bits * gemm::bitplane_words(K);
  std::vector<uint64_t> planes(static_cast<size_t>(N * col_words));
  for (int64_t j = 0; j < N; ++j)
    gemm::im2col_bitplanes(codes.data() + j * K, one, bits,
                           planes.data() + j * col_words);

  ShapeResult res;
  std::vector<int32_t> expected(static_cast<size_t>(N * M));
  res.oracle_ms = best_of_ms(1, [&] {
    gemm::bitserial_gemm_reference(wv.data(), M, K, codes.data(), N, false,
                                   expected.data());
  });

  const gemm::PopcountKernel dispatched =
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto);
  const gemm::BitSerialTileArgs args =
      gemm::tile_args(packed, bits, /*bipolar=*/false);
  std::ostringstream js;
  js << "\"" << name << "\": {\"M\": " << M << ", \"K\": " << K
     << ", \"N\": " << N << ", \"bits\": " << bits
     << ", \"scalar_oracle_ms\": " << res.oracle_ms << ", \"variants\": [";
  std::printf("%s (M=%lld K=%lld N=%lld A%d)\n", name,
              static_cast<long long>(M), static_cast<long long>(K),
              static_cast<long long>(N), bits);
  std::printf("  %-9s %12s %12s  parity\n", "variant", "1-thread ms",
              "threaded ms");
  std::printf("  %-9s %12.2f %12s  oracle\n", "scalar", res.oracle_ms, "-");
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
    std::vector<int32_t> got(expected.size());
    const gemm::BitSerialEpilogue store = [&](int64_t j0, int64_t count,
                                              const int32_t* acc) {
      std::copy(acc, acc + count * M, got.begin() + j0 * M);
    };
    const double threaded_ms = best_of_ms(kTrials, [&] {
      gemm::bitserial_gemm(packed, planes.data(), N, bits, false, store, k);
    });
    const bool exact = got == expected && single == expected;
    res.pass = res.pass && exact;
    if (k == dispatched) res.dispatched_ms = threaded_ms;
    std::printf("  %-9s %12.2f %12.2f  %s\n", gemm::kernel_name(k),
                single_ms, threaded_ms, exact ? "exact" : "MISMATCH");
    js << (v ? ", " : "") << "{\"kernel\": \"" << gemm::kernel_name(k)
       << "\", \"single_thread_ms\": " << single_ms
       << ", \"threaded_ms\": " << threaded_ms
       << ", \"bit_exact\": " << (exact ? "true" : "false") << "}";
  }
  js << "], \"dispatched_speedup_vs_oracle\": "
     << res.oracle_ms / res.dispatched_ms << "}";
  res.json = js.str();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_bitserial.json";
  const double kMinSpeedup = 50.0;
  Rng rng(11);
  const int threads = core::ThreadPool::shared().threads();
  const gemm::PopcountKernel dispatched =
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto);
  std::printf("%d threads, dispatched %s\n", threads,
              gemm::kernel_name(dispatched));
  const ShapeResult l11 = bench_shape("layer11", 512, 512, 169, 3, rng);
  const double speedup = l11.oracle_ms / l11.dispatched_ms;
  std::printf("  dispatched %s threaded: %.0fx the scalar oracle (gate >= "
              "%.0fx)\n",
              gemm::kernel_name(dispatched), speedup, kMinSpeedup);
  const ShapeResult l1 = bench_shape("layer1", 64, 16, 208 * 208, 3, rng);
  const bool pass = l11.pass && l1.pass && speedup >= kMinSpeedup;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-bitserial-v2\",\n"
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
  js << "], \"total_ms\": " << hidden_ms << "},\n"
     << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("  hidden stack total %.1f ms\n", hidden_ms);

  std::ofstream out(json_path);
  out << js.str();
  if (!out) {
    std::fprintf(stderr, "bitserial bench: cannot write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n%s\n", json_path, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
