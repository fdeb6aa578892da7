// Differential conformance harness of the 8-bit tile variants
// (gemm/kernels.hpp): every dispatchable variant (scalar baseline,
// portable lane model, AVX2 and AVX-512 when the machine has them) of
// gemm_lowp_packed_panel must be *bit-identical* to the scalar reference
// oracle gemm_lowp_i32 — on randomized shapes, on skinny-K/skinny-N
// shapes (N = 1 included), on saturation-boundary inputs and at
// zero-point extremes. Each case runs the panel loop of lowp_oracle.hpp:
// pack_lhs, im2col_panel_u8 over the pointwise geometry, then the tile,
// kNr columns at a time. The conv driver itself, sharded over the shared
// pool, is checked against the same oracle (the path the TSan preset
// audits), with the TINCY_GEMM_KERNEL override steering its tile.
//
// This suite is the contract that lets future kernel work (new ISA
// variants, new topologies) land without parity regressions: a
// vectorized quantized kernel that drifts by one bit fails here before it
// ever reaches a network test.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 40); the
// tier2-conformance ctest entry raises it and the sanitizer presets
// (ASan/UBSan/TSan) run the same binary unchanged.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/kernels.hpp"
#include "lowp_oracle.hpp"

namespace tincy::gemm {
namespace {

int conformance_reps() {
  if (const char* env = std::getenv("TINCY_CONFORMANCE_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 40;
}

/// Saturation-boundary-biased codes: half uniform, half drawn from the
/// values that sit on u8/i16 wrap and saturation edges once centered
/// (0, 255 and the immediate neighbours of the zero points in use).
std::vector<uint8_t> edge_biased_codes(Rng& rng, int64_t n) {
  static constexpr uint8_t kEdges[] = {0, 1, 127, 128, 129, 254, 255};
  std::vector<uint8_t> v(n);
  for (auto& x : v)
    x = rng.uniform_int(0, 1) == 0
            ? static_cast<uint8_t>(rng.uniform_int(0, 255))
            : kEdges[rng.uniform_int(0, 6)];
  return v;
}

/// Zero-point pairs covering the extremes: full-range corners (0/255),
/// the symmetric midpoint, and the asymmetric pairs the real layers use.
constexpr std::pair<int32_t, int32_t> kZeroPoints[] = {
    {0, 0}, {255, 255}, {0, 255}, {255, 0}, {128, 128}, {7, 131}, {1, 254}};

struct Shape {
  int64_t M, N, K;
};

/// Runs one (shape, zero-point) case through every dispatchable kernel
/// variant's panel loop and asserts bit-identity with the scalar oracle.
void expect_all_variants_conform(const Shape& s, int32_t za, int32_t zb,
                                 const std::vector<uint8_t>& a,
                                 const std::vector<uint8_t>& b) {
  std::vector<int32_t> want(s.M * s.N);
  gemm_lowp_i32(s.M, s.N, s.K, a.data(), za, b.data(), zb, want.data());
  const PackedLhs lhs = pack_lhs(a.data(), s.M, s.K, za);
  std::vector<int32_t> got(s.M * s.N);
  for (Kernel k : dispatchable_kernels()) {
    std::fill(got.begin(), got.end(), -1);
    oracle::lowp_panel_loop(b.data(), oracle::pointwise(s.K, s.N), lhs, zb, k,
                            got.data());
    ASSERT_EQ(want, got)
        << "kernel=" << kernel_name(k) << " M=" << s.M << " N=" << s.N
        << " K=" << s.K << " za=" << za << " zb=" << zb;
  }
}

/// The 8-bit conv driver (fused_conv_lowp_f32out, sharded over the shared
/// pool when the call is big enough) with a bias-only epilogue against
/// dense im2col + gemm_lowp_i32 and the same epilogue, bit for bit.
void expect_driver_matches_oracle(const ConvGeometry& g, int64_t M,
                                  int32_t za, int32_t zb,
                                  const std::vector<uint8_t>& a,
                                  const std::vector<uint8_t>& image,
                                  const std::vector<float>& bias,
                                  const std::string& what) {
  const int64_t n = g.num_patches();
  std::vector<int32_t> acc(M * n);
  oracle::lowp_conv_naive(image.data(), g, a.data(), M, za, zb, acc.data());
  const quant::AffineParams in_params{0.03f, zb}, w_params{0.011f, za};
  const float real_scale = in_params.scale * w_params.scale;
  std::vector<float> want(M * n), got(M * n, -1.0f);
  for (int64_t m = 0; m < M; ++m)
    for (int64_t j = 0; j < n; ++j)
      want[m * n + j] =
          oracle::lowp_bias_epilogue(real_scale, acc[m * n + j], bias[m]);
  const PackedLhs lhs = pack_lhs(a.data(), M, g.patch_size(), za);
  LowpEpilogue epilogue;
  epilogue.bias = bias.data();
  fused_conv_lowp_f32out(image.data(), g, in_params, lhs, w_params, epilogue,
                         got.data());
  ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0)
      << what;
}

// --- Randomized differential sweep -------------------------------------

TEST(GemmConformance, RandomizedShapeSweep) {
  Rng rng(2018);
  const int reps = conformance_reps();
  for (int rep = 0; rep < reps; ++rep) {
    Shape s{rng.uniform_int(1, 33), rng.uniform_int(1, 49),
            rng.uniform_int(1, 96)};
    // Every third rep pins a skinny dimension: the tail-handling and
    // padded-lane paths are where vector kernels historically drift.
    if (rep % 3 == 1) s.K = rng.uniform_int(1, 3);
    if (rep % 3 == 2) s.N = rng.uniform_int(1, 3);
    const auto [za, zb] = kZeroPoints[rep % std::size(kZeroPoints)];
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, za, zb, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, SkinnyAndAwkwardShapes) {
  // The fixed shapes every kernel change must survive: single tiles,
  // nothing-divides-anything, one column (N=1), K=1, and the layer-0-like
  // skinny-K wide-N shape that caught the threaded gate miss. The x86
  // i32 tiles step over k-pairs, so K = 1, 2, 3, 27 and 28 against a
  // ragged N end on a single k (zero partner) or a whole pair.
  const Shape shapes[] = {{1, 1, 1},   {4, 16, 8},     {7, 13, 33},
                          {1, 50, 9},  {5, 1, 64},     {3, 17, 1},
                          {2, 3, 2},   {16, 1000, 27}, {33, 31, 130},
                          {16, 37, 1}, {16, 37, 2},    {16, 37, 3},
                          {16, 37, 27}, {16, 37, 28}};
  Rng rng(2019);
  for (const Shape& s : shapes) {
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 7, 131, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, SaturationBoundaryInputs) {
  // All-corner operands at zero-point extremes: centered products hit
  // ±255·255 and the tile's raw u32 dots and zero-point terms wrap.
  // Conformance must hold bit for bit in every such regime.
  const Shape s{9, 21, 48};
  for (const auto& [za, zb] : kZeroPoints) {
    Rng rng(3000 + za * 7 + zb);
    std::vector<uint8_t> a(s.M * s.K), b(s.K * s.N);
    for (auto& x : a) x = rng.uniform_int(0, 1) ? 255 : 0;
    for (auto& x : b) x = rng.uniform_int(0, 1) ? 255 : 0;
    expect_all_variants_conform(s, za, zb, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, LargestAllMaxDotFitsTheAccumulator) {
  // 33,025 · 255 · 255 = 2,147,450,625 is the largest all-255 dot under
  // INT32_MAX, the oracle's signed accumulator bound: every lane of every
  // tile accumulates its maximum pair sums all the way up to it.
  const Shape s{5, 17, 33025};
  const std::vector<uint8_t> a(s.M * s.K, 255), b(s.K * s.N, 255);
  expect_all_variants_conform(s, 0, 0, a, b);
}

TEST(GemmConformance, ThreadedPanelChunkingConforms) {
  // The conv driver on calls big enough to shard their column panels over
  // the shared pool: a pointwise GEMM (N = 1700, 107 panels), L0-like
  // 3×3 convs, and a two-panel pointwise GEMM whose row blocks the driver
  // splits as well (fewer panels than shards). This is the TSan-preset target of the
  // tier2-conformance label — parallel shards writing disjoint columns.
  // The ctests pin TINCY_GEMM_THREADS=4, so every call must shard on any
  // host.
  Rng rng(2020);
  const struct {
    ConvGeometry g;
    int64_t M;
  } cases[] = {{oracle::pointwise(40, 1700), 24},
               {{3, 64, 61, 3, 1, 1}, 16},
               {{16, 29, 33, 3, 2, 1}, 21},
               {oracle::pointwise(512, 20), 125}};
  for (const auto& c : cases) {
    ASSERT_GE(2 * c.M * c.g.num_patches() * c.g.patch_size(), 1 << 20);
    const auto a = edge_biased_codes(rng, c.M * c.g.patch_size());
    const auto image = edge_biased_codes(
        rng, c.g.in_channels * c.g.in_height * c.g.in_width);
    std::vector<float> bias(c.M);
    for (auto& v : bias) v = rng.normal();
    expect_driver_matches_oracle(c.g, c.M, 128, 128, a, image, bias,
                                 "M=" + std::to_string(c.M));
    if (HasFatalFailure()) return;
    EXPECT_GT(oracle::last_driver_shards(), 1) << "M=" << c.M;
  }
}

TEST(GemmConformance, SingleColumnTailHandling) {
  // N == 1: one live lane in a kNr-wide panel, fifteen padding lanes that
  // must accumulate to 0, at depths on and off the tiles' k steps.
  Rng rng(2021);
  for (int64_t K : {1, 2, 3, 4, 5, 7, 16, 33, 100}) {
    const Shape s{13, 1, K};
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 254, 3, a, b);
    if (HasFatalFailure()) return;
  }
}

// --- Dispatch contract --------------------------------------------------

TEST(KernelDispatch, ParseAndNames) {
  EXPECT_EQ(parse_kernel_name("scalar"), Kernel::kScalar);
  EXPECT_EQ(parse_kernel_name("lanes"), Kernel::kLanes);
  EXPECT_EQ(parse_kernel_name("avx2"), Kernel::kAvx2);
  EXPECT_EQ(parse_kernel_name("avx512"), Kernel::kAvx512);
  EXPECT_EQ(parse_kernel_name("auto"), Kernel::kAuto);
  EXPECT_EQ(parse_kernel_name("bogus"), Kernel::kAuto);
  EXPECT_EQ(parse_kernel_name(nullptr), Kernel::kAuto);
  for (Kernel k : kConcreteKernels)
    EXPECT_EQ(parse_kernel_name(kernel_name(k)), k);
}

TEST(KernelDispatch, AutoSelectsWidestSupported) {
  unsetenv("TINCY_GEMM_KERNEL");
  const Kernel widest = widest_supported_kernel();
  EXPECT_TRUE(kernel_supported(widest));
  EXPECT_EQ(resolve_kernel(Kernel::kAuto), widest);
  // The widest variant is a SIMD one — kAuto must never pick the scalar
  // baseline on its own.
  EXPECT_NE(widest, Kernel::kScalar);
  // Explicit requests resolve to themselves when supported.
  EXPECT_EQ(resolve_kernel(Kernel::kScalar), Kernel::kScalar);
  EXPECT_EQ(resolve_kernel(Kernel::kLanes), Kernel::kLanes);
  // An unsupported explicit request falls back to the widest variant.
  for (Kernel k : kConcreteKernels) {
    if (!kernel_supported(k)) {
      EXPECT_EQ(resolve_kernel(k), widest);
    }
  }
  EXPECT_EQ(widest, dispatchable_kernels().back());
}

TEST(KernelDispatch, EnvOverrideSteersAutoAndEndToEnd) {
  // The conv driver resolves kAuto once per call: with the override set,
  // a call big enough to shard must run the named tile on every shard
  // and match the oracle.
  const ConvGeometry g = oracle::pointwise(32, 1000);
  const int64_t M = 24;
  Rng rng(2022);
  const auto a = edge_biased_codes(rng, M * g.patch_size());
  const auto b = edge_biased_codes(rng, g.patch_size() * g.num_patches());
  std::vector<float> bias(M);
  for (auto& v : bias) v = rng.normal();
  for (Kernel k : dispatchable_kernels()) {
    setenv("TINCY_GEMM_KERNEL", kernel_name(k), 1);
    EXPECT_EQ(resolve_kernel(Kernel::kAuto), k);
    expect_driver_matches_oracle(g, M, 7, 131, a, b, bias,
                                 std::string("env override ") +
                                     kernel_name(k));
    EXPECT_GT(oracle::last_driver_shards(), 1) << kernel_name(k);
  }
  // An unsupported or garbage override falls back to auto selection.
  setenv("TINCY_GEMM_KERNEL", "bogus", 1);
  EXPECT_EQ(resolve_kernel(Kernel::kAuto), widest_supported_kernel());
  unsetenv("TINCY_GEMM_KERNEL");
}

TEST(KernelDispatch, DispatchableListIsCoherent) {
  const auto variants = dispatchable_kernels();
  ASSERT_GE(variants.size(), 2u);  // scalar + lanes at minimum
  EXPECT_EQ(variants.front(), Kernel::kScalar);
  for (Kernel k : variants) EXPECT_TRUE(kernel_supported(k));
  // kAuto is a request, not a concrete variant.
  EXPECT_FALSE(kernel_supported(Kernel::kAuto));
}

}  // namespace
}  // namespace tincy::gemm
