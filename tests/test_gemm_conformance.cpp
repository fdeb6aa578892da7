// Differential conformance harness of the packed GEMM micro-kernel
// variants (gemm/kernels.hpp): every dispatchable variant (scalar
// baseline, portable lane model, AVX2 and AVX-512 when the machine has
// them) must be *bit-identical* to the scalar reference oracles
// gemm_lowp_i32 and gemm_lowp_i32_shift4 — on randomized shapes, on skinny-K/skinny-N
// shapes, on saturation-boundary inputs, at zero-point extremes, on the
// GEMV fast path, and under forced thread sharding (the panel-chunking
// path the TSan preset audits).
//
// This suite is the contract that lets future kernel work (new ISA
// variants, multi-engine scale-out, new topologies) land without parity
// regressions: a vectorized quantized kernel that drifts by one ulp of
// rounding fails here before it ever reaches a network test.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 40); the
// tier2-conformance ctest entry raises it and the sanitizer presets
// (ASan/UBSan/TSan) run the same binary unchanged.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/kernels.hpp"

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
/// variant on both accumulator paths and asserts bit-identity with the
/// scalar oracles. `opts_base` lets callers force sharding.
void expect_all_variants_conform(const Shape& s, int32_t za, int32_t zb,
                                 const std::vector<uint8_t>& a,
                                 const std::vector<uint8_t>& b,
                                 const GemmOptions& opts_base = [] {
                                   GemmOptions o;
                                   o.allow_threads = false;
                                   return o;
                                 }()) {
  std::vector<int32_t> oracle_i32(s.M * s.N), oracle_s4(s.M * s.N);
  gemm_lowp_i32(s.M, s.N, s.K, a.data(), za, b.data(), zb, oracle_i32.data());
  gemm_lowp_i32_shift4(s.M, s.N, s.K, a.data(), za, b.data(), zb,
                       oracle_s4.data());
  std::vector<int32_t> got(s.M * s.N);
  for (Kernel k : dispatchable_kernels()) {
    GemmOptions opts = opts_base;
    opts.kernel = k;

    opts.acc = Accumulator::kI32;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), za, b.data(), zb, got.data(),
                     opts);
    ASSERT_EQ(oracle_i32, got)
        << "i32 kernel=" << kernel_name(k) << " M=" << s.M << " N=" << s.N
        << " K=" << s.K << " za=" << za << " zb=" << zb;

    opts.acc = Accumulator::kI16Shift4;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), za, b.data(), zb, got.data(),
                     opts);
    ASSERT_EQ(oracle_s4, got)
        << "shift4 kernel=" << kernel_name(k) << " M=" << s.M << " N=" << s.N
        << " K=" << s.K << " za=" << za << " zb=" << zb;
  }
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
  // nothing-divides-anything, GEMV (N=1), K=1, and the layer-0-like
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
  // ±255·255, the shift4 path wraps its i16 product cast and rides the
  // saturating accumulator rails. Conformance must hold bit for bit even
  // in the wrapped/saturated regime (the oracles wrap identically).
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
  // Forced sharding over a private pool: the panel-chunked (and GEMV
  // row-block) parallel paths must agree with the oracles for every
  // variant. This is the TSan-preset target of the tier2-conformance
  // label — parallel shards writing disjoint C regions.
  core::ThreadPool pool(4);
  GemmOptions forced;
  forced.pool = &pool;
  forced.min_ops_per_shard = 1;
  forced.min_ops_to_thread = 1;
  Rng rng(2020);
  const Shape shapes[] = {{24, 170, 40}, {16, 1000, 27}, {21, 1, 128}};
  for (const Shape& s : shapes) {
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 128, 128, a, b, forced);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, GemvFastPathTailHandling) {
  // N == 1 takes the flat-dot fast path; K·kMr lengths that are not
  // multiples of the 16-lane step exercise every variant's scalar tail.
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
  const Shape s{6, 40, 24};
  Rng rng(2022);
  const auto a = edge_biased_codes(rng, s.M * s.K);
  const auto b = edge_biased_codes(rng, s.K * s.N);
  std::vector<int32_t> oracle(s.M * s.N), got(s.M * s.N);
  gemm_lowp_i32(s.M, s.N, s.K, a.data(), 7, b.data(), 131, oracle.data());
  for (Kernel k : dispatchable_kernels()) {
    setenv("TINCY_GEMM_KERNEL", kernel_name(k), 1);
    EXPECT_EQ(resolve_kernel(Kernel::kAuto), k);
    GemmOptions opts;  // kernel = kAuto: must route through the override
    opts.allow_threads = false;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), 7, b.data(), 131, got.data(),
                     opts);
    EXPECT_EQ(oracle, got) << "env override " << kernel_name(k);
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
