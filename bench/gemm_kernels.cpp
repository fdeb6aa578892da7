// Host microbenchmarks of the CPU conv paths on the paper's first
// convolutional layer shape (3 -> 16 channels, k3), and of the GEMMs
// underneath them. Absolute times are host times, not A53 times. The
// paper's 620 -> 295 -> 160 -> 140 -> 120 ms ladder of specialized 16x27
// kernels lives in the perf model (src/perf); the runtime keeps one float
// oracle, one fused float path and one 8-bit conv driver, timed here —
// the driver also on L0 and L13 at their real geometry, against its
// scalar reference and its own one-thread panel loop.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_simd.hpp"
#include "gemm/kernels.hpp"
#include "lowp_oracle.hpp"
#include "quant/affine.hpp"

using namespace tincy;

namespace {

struct Fixture {
  // First-layer geometry at reduced resolution (3 channels, K=3) so a
  // full google-benchmark run stays quick on any host.
  gemm::ConvGeometry g{3, 104, 104, 3, 1, 1};
  Tensor image{Shape{3, 104, 104}};
  Tensor weights{Shape{16, 27}};
  Tensor bias{Shape{16}};
  Tensor out;
  TensorU8 qimage{Shape{3, 104, 104}};
  quant::AffineParams w_params;
  gemm::PackedLhs packed;

  Fixture() {
    Rng rng(1);
    for (int64_t i = 0; i < image.numel(); ++i)
      image[i] = rng.uniform(0.0f, 1.0f);
    for (int64_t i = 0; i < weights.numel(); ++i) weights[i] = rng.normal();
    for (int64_t i = 0; i < bias.numel(); ++i) bias[i] = rng.normal();
    out = Tensor(Shape{16, g.num_patches()});
    w_params = quant::choose_affine_params(-2.0f, 2.0f);
    const TensorU8 wq = quant::quantize(weights, w_params);
    packed = gemm::pack_lhs(wq.data(), 16, 27, w_params.zero_point);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Conv_GenericIm2colGemm(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::conv_via_im2col_f32(f.image.data(), f.g, f.weights.data(), 16,
                              f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_GenericIm2colGemm);

void BM_Conv_FusedSlicedF32(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    gemm::fused_conv_f32(f.image.data(), f.g, f.weights.data(), 16,
                         f.bias.data(), f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_FusedSlicedF32);

// The layer's path: weights packed once (ConvLayer caches the panels),
// the frame calibrated and quantised per call.
void BM_Conv_FusedLowp(benchmark::State& state) {
  auto& f = fixture();
  gemm::LowpEpilogue epilogue;
  epilogue.bias = f.bias.data();
  for (auto _ : state) {
    const quant::AffineParams in_params = gemm::quantize_frame(
        f.image.data(), f.image.numel(), f.qimage.data());
    gemm::fused_conv_lowp_f32out(f.qimage.data(), f.g, in_params, f.packed,
                                 f.w_params, epilogue, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_Conv_FusedLowp);

// The algorithmic simplification (d): stride 2 quarters the applications.
void BM_Conv_FusedLowp_Stride2(benchmark::State& state) {
  auto& f = fixture();
  gemm::ConvGeometry g2 = f.g;
  g2.stride = 2;
  Tensor out(Shape{16, g2.num_patches()});
  gemm::LowpEpilogue epilogue;
  epilogue.bias = f.bias.data();
  for (auto _ : state) {
    const quant::AffineParams in_params = gemm::quantize_frame(
        f.image.data(), f.image.numel(), f.qimage.data());
    gemm::fused_conv_lowp_f32out(f.qimage.data(), g2, in_params, f.packed,
                                 f.w_params, epilogue, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv_FusedLowp_Stride2);

// --- Float reference GEMM at a hidden-layer-like size (128 × 2704 × 576) ---

struct GemmFixture {
  static constexpr int64_t M = 128, N = 2704, K = 576;
  Tensor a{Shape{M, K}}, b{Shape{K, N}}, c{Shape{M, N}};
  GemmFixture() {
    Rng rng(2);
    for (int64_t i = 0; i < a.numel(); ++i) a[i] = rng.normal();
    for (int64_t i = 0; i < b.numel(); ++i) b[i] = rng.normal();
  }
};

GemmFixture& gemm_fixture() {
  static GemmFixture f;
  return f;
}

void BM_Gemm_Reference(benchmark::State& state) {
  auto& f = gemm_fixture();
  for (auto _ : state) {
    gemm::gemm_ref(f.M, f.N, f.K, f.a.data(), f.b.data(), f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
}
BENCHMARK(BM_Gemm_Reference);

// --- The 8-bit conv driver on Tincy YOLO's L0 and L13 ------------------
//
// Three forms of the same conv, each checked bit for bit against the
// first: naive (dense im2col + gemm_lowp_i32 + the epilogue expression),
// the panel loop on one thread (im2col_panel_u8 + gemm_lowp_packed_panel
// + the same epilogue, one row per micro-kernel variant), and the
// threaded driver (fused_conv_lowp_f32out). The epilogue is a per-channel
// bias with a linear activation.

struct LowpConvShape {
  const char* name;
  gemm::ConvGeometry g;
  int64_t M;  ///< output channels
};

// L0: 3 → 16 channels, 3×3 stride 2 over the 416 frame (208 × 208 out);
// L13: the 1×1 output conv, 512 → 125 channels over 13 × 13.
constexpr LowpConvShape kLowpShapes[] = {
    {"L0", {3, 416, 416, 3, 2, 1}, 16},
    {"L13", {512, 13, 13, 1, 1, 0}, 125},
};

struct LowpConvFixture {
  LowpConvShape s;
  std::vector<uint8_t> A, image;
  std::vector<float> bias, want, out;
  std::vector<int32_t> acc;
  quant::AffineParams in_params{0.02f, 131}, w_params{0.01f, 7};
  gemm::PackedLhs lhs;

  explicit LowpConvFixture(const LowpConvShape& shape)
      : s(shape),
        A(static_cast<size_t>(shape.M * shape.g.patch_size())),
        image(static_cast<size_t>(shape.g.in_channels * shape.g.in_height *
                                  shape.g.in_width)),
        bias(static_cast<size_t>(shape.M)),
        want(static_cast<size_t>(shape.M * shape.g.num_patches())),
        out(want.size()),
        acc(want.size()) {
    Rng rng(42);
    for (auto& v : A) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : image) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : bias) v = rng.normal();
    lhs = gemm::pack_lhs(A.data(), s.M, s.g.patch_size(), w_params.zero_point);
    naive(want.data());
  }

  double mflop() const {
    return 2.0 * s.M * s.g.num_patches() * s.g.patch_size() / 1e6;
  }

  /// The epilogue expression over acc, as the driver runs it per lane.
  void epilogue(float* y) const {
    const int64_t n = s.g.num_patches();
    const float real_scale = in_params.scale * w_params.scale;
    for (int64_t m = 0; m < s.M; ++m)
      for (int64_t j = 0; j < n; ++j)
        y[m * n + j] =
            oracle::lowp_bias_epilogue(real_scale, acc[m * n + j], bias[m]);
  }

  void naive(float* y) {
    oracle::lowp_conv_naive(image.data(), s.g, A.data(), s.M,
                            w_params.zero_point, in_params.zero_point,
                            acc.data());
    epilogue(y);
  }

  void panel_loop(gemm::Kernel k, float* y) {
    oracle::lowp_panel_loop(image.data(), s.g, lhs, in_params.zero_point, k,
                            acc.data());
    epilogue(y);
  }

  void threaded(float* y) {
    gemm::LowpEpilogue e;
    e.bias = bias.data();
    gemm::fused_conv_lowp_f32out(image.data(), s.g, in_params, lhs, w_params,
                                 e, y);
  }

  bool bit_exact() const {
    return std::memcmp(out.data(), want.data(),
                       want.size() * sizeof(float)) == 0;
  }
};

LowpConvFixture& lowp_fixture(int64_t shape) {
  static LowpConvFixture l0(kLowpShapes[0]), l13(kLowpShapes[1]);
  return shape == 0 ? l0 : l13;
}

template <typename F>
void run_lowp_row(benchmark::State& state, F&& form) {
  auto& f = lowp_fixture(state.range(0));
  std::fill(f.out.begin(), f.out.end(), -1.0f);
  for (auto _ : state) {
    form(f);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetLabel(f.s.name);
  if (!f.bit_exact()) state.SkipWithError("output differs from naive");
}

void BM_GemmLowp_Naive(benchmark::State& state) {
  run_lowp_row(state, [](LowpConvFixture& f) { f.naive(f.out.data()); });
}
BENCHMARK(BM_GemmLowp_Naive)->Arg(0)->Arg(1);

void BM_GemmLowp_Threaded(benchmark::State& state) {
  run_lowp_row(state, [](LowpConvFixture& f) { f.threaded(f.out.data()); });
}
BENCHMARK(BM_GemmLowp_Threaded)->Arg(0)->Arg(1);

/// BM_GemmLowp_PanelLoop/<variant>/<shape>: the one-thread panel loop on
/// one micro-kernel variant; registered per dispatchable variant in main.
void register_panel_loop_rows() {
  for (const gemm::Kernel k : gemm::dispatchable_kernels()) {
    const std::string name =
        std::string("BM_GemmLowp_PanelLoop/") + gemm::kernel_name(k);
    benchmark::RegisterBenchmark(name.c_str(), [k](benchmark::State& state) {
      run_lowp_row(state,
                   [k](LowpConvFixture& f) { f.panel_loop(k, f.out.data()); });
    })->Arg(0)->Arg(1);
  }
}

// --- Self-checking performance gate (tier2-gemm) ----------------------
//
// `gemm_kernels --gate [out.json]` times the three forms above on L0 and
// L13, asserts that each is bit-identical to the naive one, enforces the
// speedup floors (threaded driver >= 3x naive, the one-thread panel loop
// on the dispatched tile >= 1.5x naive, that tile >= 1.5x the scalar one
// in the same loop) and writes a naive-vs-loop-vs-driver report to
// BENCH_gemm.json.

template <typename F>
double best_of_ms(int trials, F&& fn) {
  // One untimed warmup run: the first call per shape faults in the
  // scratch arenas, a one-off cost that would otherwise land on whichever
  // form happened to be timed first.
  fn();
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

int run_gate(const char* json_path) {
  const int kTrials = 5;
  const double kMinThreadedSpeedup = 3.0;
  const double kMinSingleThreadSpeedup = 1.5;
  // Micro-kernel floor: the kAuto-dispatched SIMD tile must beat the
  // scalar one (same loop, same panels, vectorization off) by this much
  // on every gate shape — and kAuto must actually have picked a SIMD
  // variant.
  const double kMinKernelSpeedup = 1.5;
  const int threads = core::ThreadPool::shared().threads();
  const gemm::Kernel dispatched = gemm::resolve_kernel(gemm::Kernel::kAuto);

  bool pass = true;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-gemm-v3\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
     << "\",\n"
     << "  \"min_speedup_threaded\": " << kMinThreadedSpeedup << ",\n"
     << "  \"min_speedup_single_thread\": " << kMinSingleThreadSpeedup
     << ",\n  \"min_speedup_kernel\": " << kMinKernelSpeedup
     << ",\n  \"shapes\": [";

  for (int64_t si = 0; si < 2; ++si) {
    LowpConvFixture& f = lowp_fixture(si);
    const gemm::ConvGeometry& g = f.s.g;
    const double naive_ms =
        best_of_ms(kTrials, [&] { f.naive(f.out.data()); });
    const bool parity_naive = f.bit_exact();

    struct KernelRow {
      gemm::Kernel k;
      double ms = 0.0;
      bool parity = false;
    };
    std::vector<KernelRow> krows;
    double scalar_ms = 0.0, loop_ms = 0.0;
    bool loop_parity = true;
    for (const gemm::Kernel k : gemm::dispatchable_kernels()) {
      std::fill(f.out.begin(), f.out.end(), -1.0f);
      const double ms =
          best_of_ms(kTrials, [&] { f.panel_loop(k, f.out.data()); });
      const bool kp = f.bit_exact();
      loop_parity = loop_parity && kp;
      if (k == gemm::Kernel::kScalar) scalar_ms = ms;
      if (k == dispatched) loop_ms = ms;
      krows.push_back({k, ms, kp});
    }

    std::fill(f.out.begin(), f.out.end(), -1.0f);
    const double threaded_ms =
        best_of_ms(kTrials, [&] { f.threaded(f.out.data()); });
    const bool parity_threaded = f.bit_exact();

    const double mflop = f.mflop();
    const double speedup_kernel = loop_ms > 0.0 ? scalar_ms / loop_ms : 0.0;
    const double speedup_st = naive_ms / loop_ms;
    const double speedup_threaded = naive_ms / threaded_ms;
    const bool kernels_ok = dispatched != gemm::Kernel::kScalar &&
                            speedup_kernel >= kMinKernelSpeedup;
    const bool shape_ok = parity_naive && loop_parity && parity_threaded &&
                          kernels_ok &&
                          speedup_st >= kMinSingleThreadSpeedup &&
                          speedup_threaded >= kMinThreadedSpeedup;
    pass = pass && shape_ok;

    std::printf(
        "%-4s C=%-4lld %lldx%lld k%lld s%lld  M=%-4lld N=%-6lld K=%-5lld "
        "parity(loop)=%s parity(threaded)=%s\n"
        "     naive      %8.3f ms (%7.0f MFLOP/s)\n"
        "     panel-1t   %8.3f ms (%7.0f MFLOP/s)  %.2fx  [floor %.1fx]\n"
        "     threaded   %8.3f ms (%7.0f MFLOP/s)  %.2fx  [floor %.1fx]"
        "  -> %s\n",
        f.s.name, static_cast<long long>(g.in_channels),
        static_cast<long long>(g.in_height),
        static_cast<long long>(g.in_width), static_cast<long long>(g.kernel),
        static_cast<long long>(g.stride), static_cast<long long>(f.s.M),
        static_cast<long long>(g.num_patches()),
        static_cast<long long>(g.patch_size()), loop_parity ? "ok" : "FAIL",
        parity_threaded ? "ok" : "FAIL", naive_ms, mflop / naive_ms * 1e3,
        loop_ms, mflop / loop_ms * 1e3, speedup_st, kMinSingleThreadSpeedup,
        threaded_ms, mflop / threaded_ms * 1e3, speedup_threaded,
        kMinThreadedSpeedup, shape_ok ? "PASS" : "FAIL");
    for (const KernelRow& r : krows) {
      std::printf(
          "     kernel %-7s %8.3f ms (%7.0f MFLOP/s)  %.2fx vs scalar"
          "  parity=%s%s\n",
          gemm::kernel_name(r.k), r.ms, mflop / r.ms * 1e3, scalar_ms / r.ms,
          r.parity ? "ok" : "FAIL", r.k == dispatched ? "  <- kAuto" : "");
    }
    std::printf("     kernel gate %.2fx (floor %.1fx, dispatched=%s)\n",
                speedup_kernel, kMinKernelSpeedup,
                gemm::kernel_name(dispatched));

    js << (si ? "," : "") << "\n    {\"name\": \"" << f.s.name
       << "\", \"C\": " << g.in_channels << ", \"H\": " << g.in_height
       << ", \"W\": " << g.in_width << ", \"kernel\": " << g.kernel
       << ", \"stride\": " << g.stride << ", \"pad\": " << g.pad
       << ", \"M\": " << f.s.M << ", \"N\": " << g.num_patches()
       << ", \"K\": " << g.patch_size()
       << ",\n     \"naive_ms\": " << naive_ms
       << ", \"panel_loop_single_thread_ms\": " << loop_ms
       << ", \"driver_threaded_ms\": " << threaded_ms
       << ",\n     \"naive_mflops\": " << mflop / naive_ms * 1e3
       << ", \"panel_loop_single_thread_mflops\": " << mflop / loop_ms * 1e3
       << ", \"driver_threaded_mflops\": " << mflop / threaded_ms * 1e3
       << ",\n     \"speedup_single_thread\": " << speedup_st
       << ", \"speedup_threaded\": " << speedup_threaded
       << ", \"parity_panel_loop\": " << (loop_parity ? "true" : "false")
       << ", \"parity_driver\": " << (parity_threaded ? "true" : "false")
       << ",\n     \"dispatched_kernel\": \"" << gemm::kernel_name(dispatched)
       << "\", \"speedup_kernel\": " << speedup_kernel
       << ",\n     \"kernels\": [";
    for (size_t i = 0; i < krows.size(); ++i) {
      js << (i ? ", " : "") << "{\"name\": \"" << gemm::kernel_name(krows[i].k)
         << "\", \"ms\": " << krows[i].ms
         << ", \"mflops\": " << mflop / krows[i].ms * 1e3
         << ", \"parity\": " << (krows[i].parity ? "true" : "false") << "}";
    }
    js << "],\n     \"pass\": " << (shape_ok ? "true" : "false") << "}";
  }
  js << "\n  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  if (json_path) {
    std::ofstream out(json_path);
    out << js.str();
    if (!out.good()) {
      std::fprintf(stderr, "gemm gate: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  std::printf("gemm gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0)
    return run_gate(argc > 2 ? argv[2] : "BENCH_gemm.json");
  register_panel_loop_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
