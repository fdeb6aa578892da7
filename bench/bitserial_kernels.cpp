// Self-checking bench of the bit-serial dot-product kernel
// (gemm/bitserial.hpp):
//
//   bitserial_kernels [out.json]
//
// 1. Tincy YOLO layer 11 at 416 (512 filters over 512 channels, 3×3,
//    13×13 output: M=512, K=4608, N=169, A=3): the scalar oracle, then
//    every popcount variant's micro-kernel on one thread and the full
//    threaded call, each checked bit for bit against the oracle.
// 2. The W1A3 hidden stack (layers 1–12 of zoo:tincy-w1a3 at 416, random
//    weights) on the golden model, layer by layer.
//
// Gate: every variant matches the oracle and the dispatched threaded
// call is at least 50× faster than the scalar oracle on layer 11. Writes
// the measurements to out.json (default BENCH_bitserial.json).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/bitserial.hpp"
#include "nn/conv_layer.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"

using namespace tincy;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_bitserial.json";
  const double kMinSpeedup = 50.0;
  const int kTrials = 5;
  const int64_t M = 512, C = 512, kernel = 3, K = C * kernel * kernel;
  const int64_t N = 169;
  const int bits = 3;

  Rng rng(11);
  std::vector<int8_t> wv(static_cast<size_t>(M * K));
  Tensor w(Shape{M, K});
  for (int64_t i = 0; i < w.numel(); ++i) {
    wv[static_cast<size_t>(i)] = rng.bernoulli(0.5) ? 1 : -1;
    w[i] = wv[static_cast<size_t>(i)];
  }
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(quant::binarize(w), kernel);
  std::vector<uint8_t> codes(static_cast<size_t>(N * K));
  for (auto& c : codes) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  gemm::ConvGeometry one;  // one column = one 3×3 footprint
  one.in_channels = C;
  one.in_height = one.in_width = one.kernel = kernel;
  const int64_t col_words = bits * gemm::bitplane_words(K);
  std::vector<uint64_t> planes(static_cast<size_t>(N * col_words));
  for (int64_t j = 0; j < N; ++j)
    gemm::im2col_bitplanes(codes.data() + j * K, one, bits,
                           planes.data() + j * col_words);

  std::vector<int32_t> expected(static_cast<size_t>(N * M));
  const double oracle_ms = best_of_ms(1, [&] {
    gemm::bitserial_gemm_reference(wv.data(), M, K, codes.data(), N, false,
                                   expected.data());
  });

  const int threads = core::ThreadPool::shared().threads();
  const gemm::PopcountKernel dispatched =
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto);
  bool pass = true;
  double dispatched_ms = 0.0;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-bitserial-v1\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
     << "\",\n  \"layer11\": {\"M\": " << M << ", \"K\": " << K
     << ", \"N\": " << N << ", \"bits\": " << bits
     << ", \"scalar_oracle_ms\": " << oracle_ms << ", \"variants\": [";
  std::printf("layer 11 (M=%lld K=%lld N=%lld A%d), %d threads\n",
              static_cast<long long>(M), static_cast<long long>(K),
              static_cast<long long>(N), bits, threads);
  std::printf("  %-9s %12s %12s  parity\n", "variant", "1-thread ms",
              "threaded ms");
  std::printf("  %-9s %12.2f %12s  oracle\n", "scalar", oracle_ms, "-");
  const auto variants = gemm::dispatchable_popcount_kernels();
  for (size_t v = 0; v < variants.size(); ++v) {
    const gemm::PopcountKernel k = variants[v];
    const gemm::BitSerialFn fn = gemm::bitserial_kernel(k);
    std::vector<int64_t> sums(static_cast<size_t>(M));
    const double single_ms = best_of_ms(kTrials, [&] {
      for (int64_t j = 0; j < N; ++j)
        fn(packed.positive.data(), M, packed.words,
           planes.data() + j * col_words, bits, sums.data());
    });
    std::vector<int32_t> got(expected.size());
    const gemm::BitSerialEpilogue store = [&](int64_t j0, int64_t count,
                                              const int32_t* acc) {
      std::copy(acc, acc + count * M, got.begin() + j0 * M);
    };
    const double threaded_ms = best_of_ms(kTrials, [&] {
      gemm::bitserial_gemm(packed, planes.data(), N, bits, false, store, k);
    });
    const bool exact = got == expected;
    pass = pass && exact;
    if (k == dispatched) dispatched_ms = threaded_ms;
    std::printf("  %-9s %12.2f %12.2f  %s\n", gemm::kernel_name(k),
                single_ms, threaded_ms, exact ? "exact" : "MISMATCH");
    js << (v ? ", " : "") << "{\"kernel\": \"" << gemm::kernel_name(k)
       << "\", \"single_thread_ms\": " << single_ms
       << ", \"threaded_ms\": " << threaded_ms
       << ", \"bit_exact\": " << (exact ? "true" : "false") << "}";
  }
  const double speedup = oracle_ms / dispatched_ms;
  js << "], \"dispatched_speedup_vs_oracle\": " << speedup << "},\n";
  std::printf("  dispatched %s threaded: %.0fx the scalar oracle (gate >= "
              "%.0fx)\n",
              gemm::kernel_name(dispatched), speedup, kMinSpeedup);
  pass = pass && speedup >= kMinSpeedup;

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
