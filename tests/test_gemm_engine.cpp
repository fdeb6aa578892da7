// Tests of the packed/tiled/threaded low-precision GEMM engine
// (gemm_packed.hpp): bit-exact parity with the scalar oracles across
// awkward shapes, the pack layout contract, accumulator auto-selection,
// the incremental im2col panel, the lowp conv pinned bit for bit to its
// scalar oracle, the zero-allocation steady state of the hot paths, and
// thread-pool correctness under concurrent load (the latter is the
// TINCY_SANITIZE=thread target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "data/image.hpp"
#include "fabric/accelerator.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "gemm/scratch.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/zoo.hpp"
#include "quant/affine.hpp"
#include "telemetry/metrics.hpp"

// --- Global operator new instrumentation (zero-allocation smoke test) ---
// Counts every heap acquisition in the process so the steady-state claim
// "warm GEMM hot paths never allocate" is checked against reality, not
// against the arena's own bookkeeping.
//
// GCC pairs inlined allocations with the *implicit* operator new
// declaration and flags the malloc/free replacement as mismatched; the
// replacement below is self-consistent, so silence the false positive.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tincy::gemm {
namespace {

std::vector<uint8_t> random_codes(Rng& rng, int64_t n) {
  std::vector<uint8_t> v(n);
  for (auto& x : v) x = static_cast<uint8_t>(rng.uniform_int(0, 255));
  return v;
}

// --- Parity vs the scalar oracles across awkward shapes ---------------

using Dims = std::tuple<int64_t, int64_t, int64_t>;

class PackedGemmParity : public ::testing::TestWithParam<Dims> {};

TEST_P(PackedGemmParity, I32BitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(91);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), {});
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, I32CachedPackBitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(92);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 200, zb = 3;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  const PackedLhs lhs = pack_lhs(a.data(), M, K, za);
  gemm_lowp_packed(lhs, b.data(), zb, N, got.data(), {});
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, Shift4BitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(93);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  // Extreme zero points wrap/saturate the 16-bit path; the kernel must
  // still match the scalar oracle bit for bit.
  const int32_t za = 5, zb = 250;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32_shift4(M, N, K, a.data(), za, b.data(), zb, ref.data());
  GemmOptions opts;
  opts.acc = Accumulator::kI16Shift4;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, ForcedShardingBitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(94);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 128, zb = 128;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  core::ThreadPool pool(4);
  GemmOptions opts;
  opts.pool = &pool;
  opts.min_ops_per_shard = 1;  // shard even tiny problems
  opts.min_ops_to_thread = 1;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
}

TEST(ThreadingHeuristic, SkinnyShapesDeclineThreads) {
  // The layer0 shape (M=16, K=27) runs in well under a millisecond single
  // threaded; fanning it out loses more to worker wake-up than the
  // parallel section saves (the 2.97x < 3x gate miss). The whole-call
  // floor must keep such calls on one thread even with a big pool.
  const int64_t M = 16, N = 1000, K = 27;
  Rng rng(95);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  std::vector<int32_t> ref(M * N), got(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  core::ThreadPool pool(4);
  GemmOptions opts;
  opts.pool = &pool;
  ASSERT_LT(2 * M * N * K, opts.min_ops_to_thread);
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
  auto& registry = telemetry::MetricsRegistry::global();
  EXPECT_EQ(registry.snapshot().gauge_value("gemm.threads"), 1.0);

  // A deep-K shape above the floor still fans out on the same pool.
  const int64_t K2 = 1 << 13;
  const auto a2 = random_codes(rng, M * K2);
  const auto b2 = random_codes(rng, K2 * N);
  std::vector<int32_t> got2(M * N);
  gemm_lowp_packed(M, N, K2, a2.data(), za, b2.data(), zb, got2.data(), opts);
  EXPECT_GT(registry.snapshot().gauge_value("gemm.threads"), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, PackedGemmParity,
    ::testing::Values(Dims{4, 16, 8},     // exactly one tile
                      Dims{7, 13, 33},    // nothing divides the tile
                      Dims{1, 50, 9},     // M=1 (single row block)
                      Dims{5, 1, 64},     // N=1 (GEMV fast path)
                      Dims{3, 17, 1},     // K=1
                      Dims{16, 1000, 27},   // layer-0-like, N % 16 != 0
                      Dims{33, 31, 130}));  // partial everything

// --- Accumulator policy ------------------------------------------------

TEST(Acc16Policy, SafePredicate) {
  // Centered codes span +-128 at zero point 128: products max 16384 and
  // small depths keep the shifted sum within int16.
  EXPECT_TRUE(acc16_safe(16, 128, 128));
  // Depth large enough to saturate the shifted sum.
  EXPECT_FALSE(acc16_safe(1024, 128, 128));
  // Asymmetric zero points push single products past int16 (253*131).
  EXPECT_FALSE(acc16_safe(4, 2, 131));
}

TEST(Acc16Policy, AutoSelectsShift4WhenSafe) {
  const int64_t M = 6, N = 33, K = 16;
  Rng rng(95);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 128, zb = 128;
  ASSERT_TRUE(acc16_safe(K, za, zb));
  std::vector<int32_t> oracle(M * N), got(M * N);
  gemm_lowp_i32_shift4(M, N, K, a.data(), za, b.data(), zb, oracle.data());
  GemmOptions opts;
  opts.acc = Accumulator::kAuto;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(oracle, got);
}

TEST(Acc16Policy, AutoFallsBackToI32WhenUnsafe) {
  const int64_t M = 6, N = 33, K = 200;
  Rng rng(96);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  ASSERT_FALSE(acc16_safe(K, za, zb));
  std::vector<int32_t> oracle(M * N), got(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, oracle.data());
  GemmOptions opts;
  opts.acc = Accumulator::kAuto;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(oracle, got);
}

// --- Pack layout contract ---------------------------------------------

TEST(PackLhs, PanelLayoutAndRowSums) {
  const int64_t rows = 5, depth = 3;  // 2 panels, 3 padded rows in panel 1
  std::vector<uint8_t> a(rows * depth);
  for (int64_t i = 0; i < rows * depth; ++i)
    a[i] = static_cast<uint8_t>(10 + i);
  const int32_t zero = 9;
  const PackedLhs p = pack_lhs(a.data(), rows, depth, zero);
  ASSERT_EQ(p.rows, rows);
  ASSERT_EQ(p.depth, depth);
  ASSERT_EQ(static_cast<int64_t>(p.data.size()),
            packed_lhs_bytes(rows, depth));
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    for (int64_t k = 0; k < depth; ++k) {
      sum += a[r * depth + k];
      // data[panel][k*kMr + lane], panel = r / kMr, lane = r % kMr.
      EXPECT_EQ(p.data[(r / kMr) * kMr * depth + k * kMr + r % kMr],
                a[r * depth + k])
          << "r=" << r << " k=" << k;
    }
    EXPECT_EQ(p.row_sums[r], sum) << r;
  }
  // Padded lanes carry the zero point so they contribute exact zeros.
  for (int64_t r = rows; r < 8; ++r)
    for (int64_t k = 0; k < depth; ++k)
      EXPECT_EQ(p.data[(r / kMr) * kMr * depth + k * kMr + r % kMr], zero);
}

TEST(PackRhsPanel, PadsTailLanesWithZeroPoint) {
  const int64_t depth = 5, cols = 21;
  Rng rng(97);
  const auto b = random_codes(rng, depth * cols);
  const int32_t zero = 77;
  std::vector<uint8_t> panel(depth * kNr);
  std::vector<int32_t> col_sums(kNr);
  const int64_t col0 = 16, width = cols - col0;  // 5-wide tail panel
  pack_rhs_panel(b.data(), depth, cols, col0, width, zero, panel.data(),
                 col_sums.data());
  for (int64_t k = 0; k < depth; ++k)
    for (int64_t j = 0; j < kNr; ++j) {
      const uint8_t want =
          j < width ? b[k * cols + col0 + j] : static_cast<uint8_t>(zero);
      EXPECT_EQ(panel[k * kNr + j], want) << "k=" << k << " j=" << j;
    }
  for (int64_t j = 0; j < width; ++j) {
    int32_t sum = 0;
    for (int64_t k = 0; k < depth; ++k) sum += b[k * cols + col0 + j];
    EXPECT_EQ(col_sums[j], sum) << j;
  }
}

// --- Incremental im2col panel vs the dense reference -------------------

class Im2colStrip : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(Im2colStrip, MatchesDenseIm2col) {
  const ConvGeometry g = GetParam();
  Rng rng(98);
  const auto image =
      random_codes(rng, g.in_channels * g.in_height * g.in_width);
  const uint8_t pad_value = 113;
  std::vector<uint8_t> dense(g.patch_size() * g.num_patches());
  im2col<uint8_t>(image.data(), g, dense.data(), pad_value);
  // Panels at awkward offsets: mid-row starts, row-crossing widths, tails.
  const int64_t n = g.num_patches();
  const int64_t starts[] = {0, 1, n / 3, n - 5 > 0 ? n - 5 : 0};
  const int64_t widths[] = {1, 3, kNr};
  std::vector<uint8_t> panel(g.patch_size() * kNr);
  int32_t col_sums[kNr];
  for (int64_t col0 : starts)
    for (int64_t w : widths) {
      const int64_t width = std::min(w, n - col0);
      if (width <= 0) continue;
      im2col_panel_u8(image.data(), g, col0, width, pad_value, panel.data(),
                      col_sums);
      for (int64_t j = 0; j < kNr; ++j) {
        int32_t sum = 0;
        for (int64_t r = 0; r < g.patch_size(); ++r) {
          // Lanes past `width` hold the padding value.
          const uint8_t want =
              j < width ? dense[r * n + col0 + j] : pad_value;
          ASSERT_EQ(panel[r * kNr + j], want)
              << "col0=" << col0 << " width=" << width << " r=" << r
              << " j=" << j;
          sum += want;
        }
        ASSERT_EQ(col_sums[j], sum) << "col0=" << col0 << " j=" << j;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colStrip,
    ::testing::Values(ConvGeometry{3, 8, 9, 3, 1, 1},   // padded stride 1
                      ConvGeometry{2, 7, 9, 3, 2, 1},   // stride 2 + pad
                      ConvGeometry{1, 5, 5, 3, 1, 0},   // no pad
                      ConvGeometry{4, 6, 6, 1, 1, 0},   // 1x1 kernel
                      ConvGeometry{1, 4, 4, 3, 3, 2},   // stride > kernel-1
                      ConvGeometry{2, 3, 3, 3, 1, 1})); // out == in == 3x3

// --- The one lowp conv vs its scalar oracle ------------------------------

/// Scalar oracle of fused_conv_lowp_f32out: quantize the image, dense
/// im2col with the input zero point as padding, gemm_lowp_i32, then the
/// same dequantization (real_scale · acc + bias).
std::vector<float> conv_lowp_oracle(const std::vector<float>& image,
                                    const ConvGeometry& g,
                                    const quant::AffineParams& in_params,
                                    const std::vector<uint8_t>& wq,
                                    const quant::AffineParams& w_params,
                                    int64_t out_channels,
                                    const std::vector<float>& bias) {
  std::vector<uint8_t> qimage(image.size());
  for (size_t i = 0; i < image.size(); ++i)
    qimage[i] = in_params.quantize(image[i]);
  const int64_t patch = g.patch_size(), n = g.num_patches();
  std::vector<uint8_t> columns(patch * n);
  im2col<uint8_t>(qimage.data(), g, columns.data(),
                  static_cast<uint8_t>(in_params.zero_point));
  std::vector<int32_t> acc(out_channels * n);
  gemm_lowp_i32(out_channels, n, patch, wq.data(), w_params.zero_point,
                columns.data(), in_params.zero_point, acc.data());
  const float real_scale = in_params.scale * w_params.scale;
  std::vector<float> out(out_channels * n);
  for (int64_t m = 0; m < out_channels; ++m)
    for (int64_t j = 0; j < n; ++j)
      out[m * n + j] = real_scale * static_cast<float>(acc[m * n + j]) +
                       bias[m];
  return out;
}

struct ConvCase {
  ConvGeometry g;
  int64_t out_channels;
};

class ConvLowp : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvLowp, MatchesScalarOracleBitForBit) {
  const auto [g, out_channels] = GetParam();
  Rng rng(99);
  std::vector<float> image(g.in_channels * g.in_height * g.in_width);
  for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> bias(out_channels);
  for (auto& v : bias) v = rng.normal();
  const auto in_params = quant::choose_affine_params(-1.0f, 1.0f);
  const auto w_params = quant::choose_affine_params(-2.0f, 2.0f);
  const auto wq = random_codes(rng, out_channels * g.patch_size());

  const std::vector<float> want = conv_lowp_oracle(
      image, g, in_params, wq, w_params, out_channels, bias);
  const PackedLhs lhs =
      pack_lhs(wq.data(), out_channels, g.patch_size(), w_params.zero_point);
  std::vector<uint8_t> qimage(image.size());
  quant::quantize(image.data(), static_cast<int64_t>(image.size()), in_params,
                  qimage.data());
  LowpEpilogue epilogue;
  epilogue.bias = bias.data();
  std::vector<float> got(out_channels * g.num_patches(), -1.0f);
  fused_conv_lowp_f32out(qimage.data(), g, in_params, lhs, w_params, epilogue,
                         got.data());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvLowp,
    ::testing::Values(
        // Tincy YOLO layer 0 in miniature: 3 channels, k3, s2, p1, 16
        // filters; 17x17 -> 81 columns, not a multiple of kNr.
        ConvCase{{3, 17, 17, 3, 2, 1}, 16},
        // Layer 0 large enough to shard over the thread pool.
        ConvCase{{3, 104, 104, 3, 2, 1}, 16},
        // Layer 13-like 1x1 output conv: 13x13 = 169 columns.
        ConvCase{{64, 13, 13, 1, 1, 0}, 125},
        ConvCase{{3, 10, 11, 3, 1, 1}, 7},
        ConvCase{{2, 9, 7, 3, 2, 1}, 5},
        ConvCase{{5, 6, 6, 1, 1, 0}, 3},
        ConvCase{{1, 4, 4, 3, 3, 2}, 1}));

// --- Zero-allocation steady state --------------------------------------

TEST(ZeroAllocation, WarmHotPathsDoNotTouchTheHeap) {
  const ConvGeometry g{3, 24, 24, 3, 1, 1};
  const int64_t out_channels = 16;
  Rng rng(101);
  std::vector<float> image(g.in_channels * g.in_height * g.in_width);
  for (auto& v : image) v = rng.uniform(0.0f, 1.0f);
  std::vector<float> bias(out_channels, 0.1f);
  const auto in_params = quant::choose_affine_params(0.0f, 1.0f);
  const auto w_params = quant::choose_affine_params(-2.0f, 2.0f);
  const auto wq = random_codes(rng, out_channels * g.patch_size());
  const PackedLhs lhs =
      pack_lhs(wq.data(), out_channels, g.patch_size(), w_params.zero_point);
  std::vector<float> out(out_channels * g.num_patches());
  std::vector<uint8_t> qimage(image.size());
  LowpEpilogue epilogue;
  epilogue.bias = bias.data();

  // A kLowp conv on both sinks: run_layer's float sink, and the code sink
  // writing a 3-bit grid's codes with the float output replayed after.
  // 24×24 → 576 columns stays on this thread (see the golden conv below).
  nn::ConvConfig lcfg;
  lcfg.filters = 16;
  lcfg.batch_normalize = true;
  lcfg.kernel = nn::ConvKernel::kLowp;
  nn::ConvLayer lowp(lcfg, Shape{3, 24, 24});
  for (int64_t i = 0; i < lowp.weights().numel(); ++i)
    lowp.weights()[i] = rng.normal();
  Tensor lowp_in(Shape{3, 24, 24});
  for (int64_t i = 0; i < lowp_in.numel(); ++i)
    lowp_in[i] = rng.uniform(0.0f, 1.0f);
  Tensor lowp_out(lowp.output_shape());
  const quant::CodeGrid grid3{3, 0.25f, false};
  TensorU8 lowp_codes(lowp.output_shape());
  nn::EmittedFrame lowp_kept;  // the quantised frame the code sink keeps

  // The W1A3 frame's first two layers under Network::forward: L0 emits
  // L1's codes, and L0's floats are replayed on read. Run on the network's
  // own state and on a second, caller-owned one, with L0's kept frame in
  // each.
  const auto head = nn::build_network_from_string(
      "[net]\nwidth=24\nheight=24\nchannels=3\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=3\npad=1\n"
      "activation=relu\nkernel=lowp\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n");
  nn::zoo::randomize(*head, rng);
  nn::FrameState head_state;

  const int64_t M = 24, N = 96, K = 64;
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const auto out_params = quant::choose_affine_params(-4.0f, 4.0f);
  const quant::Requantizer rq =
      quant::make_requantizer(in_params.scale, w_params.scale, out_params);
  std::vector<uint8_t> cq(M * N);

  // A W1A3 golden conv followed by a max pool, as on the frame path. It is
  // small enough to run on this thread: a pool worker's arena is sized on
  // the worker's first share of a call, which a short warm-up cannot
  // promise to every worker.
  nn::ConvConfig gcfg;
  gcfg.filters = 16;
  gcfg.activation = nn::Activation::kRelu;
  gcfg.batch_normalize = true;
  gcfg.binary_weights = true;
  gcfg.act_bits = 3;
  gcfg.kernel = nn::ConvKernel::kQuantReference;
  nn::ConvLayer golden(gcfg, Shape{16, 12, 12});
  for (int64_t i = 0; i < golden.weights().numel(); ++i)
    golden.weights()[i] = rng.normal();
  Tensor codes_in(Shape{16, 12, 12});
  for (int64_t i = 0; i < codes_in.numel(); ++i)
    codes_in[i] = static_cast<float>(rng.uniform_int(0, 7));
  Tensor golden_out(golden.output_shape());
  nn::MaxPoolLayer pool({2, 2}, golden.output_shape());
  Tensor pooled(pool.output_shape());
  // The same conv and pool on pixel-major (HWC) codes on their grid, as
  // Network::forward hands them: no layout conversion, no float; and the
  // pool on codes writing floats, as before a layer that reads floats.
  const quant::CodeGrid grid_1{3, 1.0f, false};
  std::vector<uint8_t> hwc_in(static_cast<size_t>(codes_in.numel()));
  for (auto& x : hwc_in) x = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<uint8_t> hwc_conv(static_cast<size_t>(golden_out.numel())),
      hwc_pooled(static_cast<size_t>(pooled.numel()));
  // A code pool large enough (64 × 128 × 128) to shard over its rows.
  nn::MaxPoolLayer big_pool({2, 2}, Shape{64, 128, 128});
  std::vector<uint8_t> big_in(64 * 128 * 128, 3),
      big_out(static_cast<size_t>(big_pool.output_shape().numel()));

  // A miniature of the W1A3 hidden ladder under Network::forward: codes
  // handed conv → pool → conv → pool → conv → conv, quantised once on the
  // way in and dequantised once on the way out.
  const auto ladder = nn::build_network_from_string(
      "[net]\nwidth=8\nheight=8\nchannels=16\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n\n"
      "[maxpool]\nsize=2\nstride=2\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=32\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n\n"
      "[maxpool]\nsize=2\nstride=1\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=32\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n");
  nn::zoo::randomize(*ladder, rng);
  nn::FrameState ladder_state;
  Tensor ladder_in(ladder->input_shape());
  for (int64_t i = 0; i < ladder_in.numel(); ++i)
    ladder_in[i] = static_cast<float>(rng.uniform_int(0, 7));

  // The W1A3 frame's last two convs under Network::forward: L13 (kLowp,
  // 1 × 1) reads L12's codes and writes its floats, with no dequantise
  // pass and its 8-bit frame made from the codes by table.
  const auto tail = nn::build_network_from_string(
      "[net]\nwidth=8\nheight=8\nchannels=16\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=32\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n\n"
      "[convolutional]\nfilters=24\nsize=1\nactivation=linear\n"
      "kernel=lowp\n");
  nn::zoo::randomize(*tail, rng);

  // The sharded letterbox's interior: a camera frame into a 416 frame the
  // caller owns (only letterbox()'s returned Tensor is allocated). The
  // column taps stay in this thread's arena; the pool's share is
  // allocation-free.
  Tensor camera(Shape{3, 480, 640});
  for (int64_t i = 0; i < camera.numel(); ++i)
    camera[i] = rng.uniform(0.0f, 1.0f);
  Tensor boxed(Shape{3, 416, 416});

  // One fabric engine stage (conv + pool), run alone and as a gang of 4.
  fabric::QnnLayerSpec spec;
  spec.in_channels = 16;
  spec.in_height = spec.in_width = 8;
  spec.filters = 16;
  spec.pool_after = true;
  std::vector<fabric::ThresholdChannel> th(16);
  for (auto& ch : th)
    for (int k = -3; k <= 3; ++k) ch.thresholds.push_back(k * 8);
  Tensor fabric_w(Shape{16, 16 * 9});
  for (int64_t i = 0; i < fabric_w.numel(); ++i) fabric_w[i] = rng.normal();
  fabric::QnnAccelerator accel;
  telemetry::MetricsRegistry fabric_metrics;
  accel.set_metrics(&fabric_metrics);
  accel.add_layer(spec, quant::binarize(fabric_w), th);
  const std::vector<uint8_t> gang_in = [&] {
    std::vector<uint8_t> v(4 * 16 * 8 * 8);
    for (auto& x : v) x = static_cast<uint8_t>(rng.uniform_int(0, 7));
    return v;
  }();
  std::vector<uint8_t> gang_out(4 * spec.output_shape().numel());
  const int64_t one_in = 16 * 8 * 8, one_out = spec.output_shape().numel();

  auto run_frame = [&] {
    const quant::AffineParams frame_params = quantize_frame(
        image.data(), static_cast<int64_t>(image.size()), qimage.data());
    fused_conv_lowp_f32out(qimage.data(), g, frame_params, lhs, w_params,
                           epilogue, out.data());
    lowp.forward(lowp_in, lowp_out);
    lowp.forward(nn::LayerIn{&lowp_in},
                 nn::LayerOut{nullptr, lowp_codes.data(), grid3, &lowp_kept});
    lowp.replay_emitted(lowp_kept, lowp_out);
    head->forward(lowp_in);
    head->layer_output(0);
    head->forward(lowp_in, head_state);
    head->layer_output(0, head_state);
    gemm_lowp_u8(M, N, K, a.data(), in_params.zero_point, b.data(),
                 w_params.zero_point, rq, cq.data());
    golden.forward(codes_in, golden_out);
    pool.forward(golden_out, pooled);
    golden.forward(nn::LayerIn{nullptr, hwc_in.data(), grid_1},
                   nn::LayerOut{nullptr, hwc_conv.data(), grid_1});
    pool.forward(nn::LayerIn{nullptr, hwc_conv.data(), grid_1},
                 nn::LayerOut{nullptr, hwc_pooled.data(), grid_1});
    pool.forward(nn::LayerIn{nullptr, hwc_conv.data(), grid_1},
                 nn::LayerOut{&pooled});
    big_pool.forward(nn::LayerIn{nullptr, big_in.data(), grid_1},
                     nn::LayerOut{nullptr, big_out.data(), grid_1});
    ladder->forward(ladder_in);
    ladder->forward(ladder_in, ladder_state);
    tail->forward(ladder_in);
    data::letterbox_into(camera, boxed, core::ThreadPool::shared());
    // CHW maps in and out: both passes convert at entry and exit.
    accel.run_layer_batched(
        0, std::span<const uint8_t>(gang_in.data(), one_in), 1,
        std::span<uint8_t>(gang_out.data(), one_out));
    accel.run_layer_batched(0, gang_in, 4, gang_out);
  };

  // Warm-up: sizes the thread arenas, spins up the shared pool, resolves
  // the telemetry instruments.
  run_frame();
  run_frame();

  const int64_t arena_before = thread_arena().heap_allocations();
  const int64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) run_frame();
  const int64_t heap_after = g_heap_allocs.load(std::memory_order_relaxed);
  const int64_t arena_after = thread_arena().heap_allocations();

  EXPECT_EQ(heap_after - heap_before, 0)
      << "steady-state frames must not allocate";
  EXPECT_EQ(arena_after - arena_before, 0)
      << "arena must not grow after warm-up";
}

// --- Thread pool: correctness and concurrent stress (TSan target) ------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  core::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  struct Ctx {
    std::vector<std::atomic<int>>* hits;
  } ctx{&hits};
  pool.parallel_for(
      0, 1000, 13,
      [](int64_t lo, int64_t hi, void* c) {
        auto* h = static_cast<Ctx*>(c)->hits;
        for (int64_t i = lo; i < hi; ++i)
          (*h)[i].fetch_add(1, std::memory_order_relaxed);
      },
      &ctx);
  for (int64_t i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedCallsRunInline) {
  core::ThreadPool pool(3);
  struct Outer {
    core::ThreadPool* pool;
    std::atomic<int64_t> sum{0};
  } ctx{&pool};
  pool.parallel_for(
      0, 8, 8,
      [](int64_t lo, int64_t hi, void* c) {
        auto* o = static_cast<Outer*>(c);
        for (int64_t i = lo; i < hi; ++i) {
          // Re-entrant parallel_for from a worker must not deadlock.
          o->pool->parallel_for(
              0, 10, 4,
              [](int64_t l, int64_t h, void* s) {
                static_cast<std::atomic<int64_t>*>(s)->fetch_add(
                    h - l, std::memory_order_relaxed);
              },
              &o->sum);
        }
      },
      &ctx);
  EXPECT_EQ(ctx.sum.load(), 8 * 10);
}

TEST(ThreadPool, ConcurrentGemmCallersStaySane) {
  // Several caller threads drive sharded GEMMs through one pool at once —
  // the shape of pipeline workers sharing the process pool. Run under
  // TINCY_SANITIZE=thread for the data-race audit.
  core::ThreadPool pool(4);
  const int64_t M = 31, N = 130, K = 70;
  Rng rng(102);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 9, zb = 201;
  std::vector<int32_t> ref(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  const PackedLhs lhs = pack_lhs(a.data(), M, K, za);

  constexpr int kCallers = 4, kReps = 8;
  std::vector<std::vector<int32_t>> outs(kCallers,
                                         std::vector<int32_t>(M * N));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      GemmOptions opts;
      opts.pool = &pool;
      opts.min_ops_per_shard = 1;
      opts.min_ops_to_thread = 1;
      for (int rep = 0; rep < kReps; ++rep)
        gemm_lowp_packed(lhs, b.data(), zb, N, outs[t].data(), opts);
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(outs[t], ref) << t;
}

}  // namespace
}  // namespace tincy::gemm
