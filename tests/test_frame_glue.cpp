// Differential oracles of the W1A3 frame's per-element CPU stages: the
// letterbox, the max pool, the activation quantisers, min/max
// calibration, the conv post-pass and the golden model's threshold
// epilogue. Each single-pass kernel must reproduce its scalar per-element
// oracle (frame_glue_oracle.hpp) bit for bit, including on NaN, ±inf,
// ±0 and exact rounding ties.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "data/image.hpp"
#include "frame_glue_oracle.hpp"
#include "gemm/gemm_simd.hpp"
#include "gemm/im2col.hpp"
#include "nn/maxpool_layer.hpp"

namespace tincy {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();

void expect_same_bits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
}

Tensor random_image(Rng& rng, Shape shape) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(0.0f, 1.0f);
  return t;
}

// --- Letterbox ---------------------------------------------------------

using LetterboxCase = std::tuple<int64_t, int64_t, int64_t, int64_t>;
// (channels, height, width, boxed size)

class LetterboxOracle : public ::testing::TestWithParam<LetterboxCase> {};

TEST_P(LetterboxOracle, BitIdenticalToPerPixelLoop) {
  const auto [C, H, W, size] = GetParam();
  Rng rng(static_cast<uint64_t>(C * 7 + H * 131 + W));
  const Tensor image = random_image(rng, Shape{C, H, W});
  expect_same_bits(data::letterbox(image, size),
                   oracle::letterbox(image, size));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LetterboxOracle,
    ::testing::Values(LetterboxCase{3, 480, 640, 416},  // camera frame
                      LetterboxCase{1, 480, 640, 416},
                      LetterboxCase{3, 640, 480, 416},  // portrait
                      LetterboxCase{1, 640, 480, 416},
                      LetterboxCase{3, 300, 300, 416},  // square
                      LetterboxCase{1, 300, 300, 416},
                      LetterboxCase{3, 1, 57, 416},     // 1×N
                      LetterboxCase{1, 1, 57, 416},
                      LetterboxCase{3, 57, 1, 416},     // N×1
                      LetterboxCase{1, 57, 1, 416},
                      LetterboxCase{3, 96, 128, 416},   // upscale
                      LetterboxCase{1, 96, 128, 416},
                      LetterboxCase{3, 480, 640, 64}));  // serving size

TEST(ResizeOracle, BitIdenticalOnOddSizes) {
  Rng rng(5);
  const Tensor image = random_image(rng, Shape{2, 13, 29});
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{1, 1}, {1, 40},
                             {40, 1}, {7, 11}, {13, 29}, {100, 3}})
    expect_same_bits(data::resize_bilinear(image, h, w),
                     oracle::resize_bilinear(image, h, w));
}

TEST(ResizeOracle, RejectsEmptyImages) {
  EXPECT_THROW(data::letterbox(Tensor(Shape{3, 0, 4}), 8), Error);
  EXPECT_THROW(data::letterbox(Tensor(Shape{3, 4, 4}), 0), Error);
  EXPECT_THROW(data::resize_bilinear(Tensor(Shape{3, 4, 0}), 2, 2), Error);
}

// --- Max pool ----------------------------------------------------------

using PoolCase = std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>;
// (channels, height, width, size, stride)

class MaxPoolOracle : public ::testing::TestWithParam<PoolCase> {};

TEST_P(MaxPoolOracle, BitIdenticalIncludingNanInfAndSignedZero) {
  const auto [C, H, W, size, stride] = GetParam();
  Rng rng(static_cast<uint64_t>(H * 1000 + W * 10 + size + stride));
  Tensor in(Shape{C, H, W});
  const float specials[] = {kNaN, kInf, -kInf, 0.0f, -0.0f};
  for (int64_t i = 0; i < in.numel(); ++i)
    in[i] = rng.bernoulli(0.3)
                ? specials[rng.uniform_int(0, 4)]
                : rng.uniform(-2.0f, 2.0f);
  // One plane of NaN only: every window skips all of its taps.
  for (int64_t i = 0; i < H * W; ++i) in[i] = kNaN;
  nn::MaxPoolLayer pool({size, stride}, in.shape());
  Tensor got(pool.output_shape()), want(pool.output_shape());
  pool.forward(in, got);
  oracle::maxpool(in, size, stride, want);
  expect_same_bits(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MaxPoolOracle,
    ::testing::Values(PoolCase{3, 8, 10, 2, 2},   // even H and W
                      PoolCase{3, 9, 7, 2, 2},    // odd H and W
                      PoolCase{2, 8, 7, 2, 2},    // even H, odd W
                      PoolCase{4, 13, 13, 2, 1},  // Tincy L10
                      PoolCase{3, 6, 7, 3, 1},
                      PoolCase{3, 9, 9, 3, 2},
                      PoolCase{2, 8, 11, 3, 2},
                      PoolCase{2, 10, 9, 4, 3},
                      PoolCase{2, 1, 1, 2, 2},
                      PoolCase{2, 2, 5, 3, 3}));

// --- Activation quantisers and calibration -----------------------------

std::vector<float> quantiser_probes(float scale, int levels) {
  std::vector<float> v = {kNaN,    -kNaN,   kInf,     -kInf,  0.0f,
                          -0.0f,   -1.0f,   -1e30f,   1e30f,  1e-40f,
                          -1e-40f, 3e38f,   -0.49f,   -0.5f,  -0.51f};
  for (int k = -2; k <= levels + 2; ++k) {
    const float tie = scale * (static_cast<float>(k) + 0.5f);
    v.insert(v.end(), {scale * static_cast<float>(k), tie,
                       std::nextafter(tie, -kInf), std::nextafter(tie, kInf)});
  }
  Rng rng(static_cast<uint64_t>(levels) * 3 + 1);
  for (int i = 0; i < 200; ++i)
    v.push_back(rng.uniform(-2.0f, static_cast<float>(levels) + 2.0f) * scale);
  return v;
}

TEST(UniformActQuantOracle, BitIdenticalForBits1To4) {
  for (int bits = 1; bits <= 4; ++bits)
    for (const float scale : {1.0f, 0.25f, 0.37f, 3.0f}) {
      const quant::UniformActQuant q{bits, scale};
      const std::vector<float> x = quantiser_probes(scale, q.levels());
      std::vector<uint8_t> bulk(x.size());
      quant::quantize_activations(x.data(), static_cast<int64_t>(x.size()),
                                  q, bulk.data());
      for (size_t i = 0; i < x.size(); ++i) {
        const uint8_t want = oracle::uniform_quantize(q, x[i]);
        ASSERT_EQ(q.quantize(x[i]), want)
            << "bits " << bits << " scale " << scale << " x " << x[i];
        ASSERT_EQ(bulk[i], want) << "bulk, x " << x[i];
      }
    }
}

TEST(AffineQuantOracle, BitIdenticalAndNanIsCodeZero) {
  for (const auto& [lo, hi] : {std::pair{0.0f, 1.0f}, {-1.0f, 1.0f},
                               {-3.0f, 0.5f}, {-0.2f, 7.0f}, {2.0f, 2.0f}}) {
    const quant::AffineParams p = quant::choose_affine_params(lo, hi);
    std::vector<float> x = quantiser_probes(p.scale, 255);
    for (int k = -300; k <= 300; ++k)
      x.push_back(p.scale * (static_cast<float>(k) + 0.5f));
    std::vector<uint8_t> bulk(x.size());
    quant::quantize(x.data(), static_cast<int64_t>(x.size()), p, bulk.data());
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::isnan(x[i])) {  // the oracle's NaN cast is undefined
        ASSERT_EQ(p.quantize(x[i]), 0);
        ASSERT_EQ(bulk[i], 0);
        continue;
      }
      const uint8_t want = oracle::affine_quantize(p, x[i]);
      ASSERT_EQ(p.quantize(x[i]), want) << "range " << lo << ".." << hi
                                        << " x " << x[i];
      ASSERT_EQ(bulk[i], want) << "bulk, x " << x[i];
    }
  }
}

TEST(MinMaxOracle, BitIdenticalWithNanAndSignedZero) {
  Rng rng(17);
  for (const int64_t n : {0, 1, 2, 15, 16, 17, 33, 100, 1000}) {
    for (int variant = 0; variant < 8; ++variant) {
      Tensor t(Shape{n});
      const auto signed_zero = [&] { return rng.bernoulli(0.5) ? 0.0f : -0.0f; };
      for (int64_t i = 0; i < n; ++i) {
        switch (variant) {
          case 0: t[i] = rng.uniform(-1.0f, 1.0f); break;
          case 1: t[i] = signed_zero(); break;
          case 2:
            t[i] = rng.bernoulli(0.5) ? rng.uniform(0.0f, 1.0f) : signed_zero();
            break;
          case 3:
            t[i] = rng.bernoulli(0.2) ? kNaN : rng.uniform(-1.0f, 1.0f);
            break;
          case 4:
            t[i] = rng.bernoulli(0.5) ? -rng.uniform(0.0f, 1.0f) : signed_zero();
            break;
          case 5:  // sparse zeros: the first one need not be in lane 0
            t[i] = rng.bernoulli(0.03) ? signed_zero() : rng.uniform(0.0f, 1.0f);
            break;
          case 6:
            t[i] = rng.bernoulli(0.03) ? signed_zero() : -rng.uniform(0.0f, 1.0f);
            break;
          default: t[i] = rng.bernoulli(0.3) ? kInf : -kInf; break;
        }
      }
      if (variant == 3 && n > 0) t[0] = kNaN;  // a leading NaN poisons
      const auto [lo, hi] = quant::min_max(t);
      const auto [want_lo, want_hi] = oracle::min_max(t);
      ASSERT_EQ(std::bit_cast<uint32_t>(lo), std::bit_cast<uint32_t>(want_lo))
          << "n " << n << " variant " << variant;
      ASSERT_EQ(std::bit_cast<uint32_t>(hi), std::bit_cast<uint32_t>(want_hi))
          << "n " << n << " variant " << variant;
    }
  }
}

// --- Conv post-pass ----------------------------------------------------

using PostCase = std::tuple<nn::Activation, bool, int, bool>;
// (activation, batch_norm, act_bits, bipolar)

class ApplyPostOracle : public ::testing::TestWithParam<PostCase> {};

TEST_P(ApplyPostOracle, FusedConvBitIdenticalToPerElementPost) {
  const auto [act, bn, bits, bipolar] = GetParam();
  nn::ConvConfig cfg;
  cfg.filters = 6;
  cfg.size = 3;
  cfg.activation = act;
  cfg.batch_normalize = bn;
  cfg.act_bits = bits;
  cfg.out_scale = 0.3f;
  cfg.bipolar = bipolar;
  cfg.kernel = nn::ConvKernel::kFused;
  nn::ConvLayer layer(cfg, Shape{3, 7, 9});
  Rng rng(static_cast<uint64_t>(static_cast<int>(act) * 100 + bits));
  for (int64_t i = 0; i < layer.weights().numel(); ++i)
    layer.weights()[i] = rng.normal();
  for (int64_t c = 0; c < cfg.filters; ++c) {
    layer.biases()[c] = rng.normal(0.0f, 0.5f);
    if (bn) {
      layer.bn_scales()[c] = rng.normal(1.0f, 0.6f);
      layer.bn_mean()[c] = rng.normal(0.0f, 0.5f);
      layer.bn_var()[c] = rng.uniform(0.5f, 1.5f);
    }
  }
  Tensor in(Shape{3, 7, 9});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(-1.0f, 1.0f);

  Tensor got(layer.output_shape()), want(layer.output_shape());
  layer.forward(in, got);
  gemm::fused_conv_f32(in.data(), layer.geometry(), layer.weights().data(),
                       cfg.filters, nullptr, want.data());
  oracle::apply_post(layer, want);
  expect_same_bits(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ApplyPostOracle,
    ::testing::Values(PostCase{nn::Activation::kRelu, true, 32, false},
                      PostCase{nn::Activation::kRelu, false, 32, false},
                      PostCase{nn::Activation::kLeaky, true, 32, false},
                      PostCase{nn::Activation::kLinear, false, 32, false},
                      PostCase{nn::Activation::kLogistic, true, 32, false},
                      PostCase{nn::Activation::kRelu, true, 3, false},
                      PostCase{nn::Activation::kLeaky, false, 2, false},
                      PostCase{nn::Activation::kLinear, true, 1, true}));

// --- Golden bit-serial conv --------------------------------------------

/// A random W1A<bits> golden conv layer; a third of the BN scales are
/// negative, so both threshold directions occur.
std::unique_ptr<nn::ConvLayer> make_golden(Rng& rng, Shape in, int64_t filters,
                                           int64_t stride, int bits,
                                           bool bipolar) {
  nn::ConvConfig cfg;
  cfg.filters = filters;
  cfg.size = 3;
  cfg.stride = stride;
  cfg.pad = !bipolar;
  cfg.activation = bipolar ? nn::Activation::kLinear : nn::Activation::kRelu;
  cfg.batch_normalize = true;
  cfg.binary_weights = true;
  cfg.act_bits = bits;
  cfg.bipolar = bipolar;
  cfg.in_scale = 0.5f;
  cfg.out_scale = 0.75f;
  cfg.kernel = nn::ConvKernel::kQuantReference;
  auto layer = std::make_unique<nn::ConvLayer>(cfg, in);
  for (int64_t i = 0; i < layer->weights().numel(); ++i)
    layer->weights()[i] = rng.normal();
  for (int64_t c = 0; c < filters; ++c) {
    layer->biases()[c] = rng.normal(0.0f, 2.0f);
    layer->bn_scales()[c] = rng.bernoulli(0.33) ? -rng.uniform(0.2f, 1.5f)
                                                : rng.uniform(0.2f, 1.5f);
    layer->bn_mean()[c] = rng.normal(0.0f, 2.0f);
    layer->bn_var()[c] = rng.uniform(0.5f, 4.0f);
  }
  layer->invalidate_cached_quantization();
  return layer;
}

/// Inputs on and off the grid, with negatives, NaN and values past the top.
Tensor golden_input(Rng& rng, Shape shape, int bits, float scale) {
  Tensor t(shape);
  const int levels = (1 << bits) - 1;
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = scale * static_cast<float>(rng.uniform_int(-1, levels + 1));
    if (rng.bernoulli(0.2)) t[i] += rng.uniform(-0.5f, 0.5f) * scale;
    if (rng.bernoulli(0.01)) t[i] = kNaN;
  }
  return t;
}

using GoldenCase =
    std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int, bool>;
// (channels, height, width, filters, stride, bits, bipolar)

class GoldenConvOracle : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenConvOracle, BitIdenticalToPerElementEpilogue) {
  const auto [C, H, W, filters, stride, bits, bipolar] = GetParam();
  Rng rng(static_cast<uint64_t>(C * 97 + H * 13 + W + filters * 7 + bits));
  const auto layer = make_golden(rng, Shape{C, H, W}, filters, stride, bits,
                                 bipolar);
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(layer->binary_weights(), 3);
  for (int rep = 0; rep < 2; ++rep) {
    const Tensor in = golden_input(rng, Shape{C, H, W}, bits, 0.5f);
    Tensor got(layer->output_shape()), want(layer->output_shape());
    layer->forward(in, got);
    oracle::golden_conv(*layer, packed, in, want);
    expect_same_bits(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GoldenConvOracle,
    ::testing::Values(GoldenCase{5, 7, 9, 11, 1, 3, false},
                      GoldenCase{5, 7, 9, 11, 2, 3, false},
                      GoldenCase{16, 26, 26, 64, 1, 3, false},  // sharded
                      GoldenCase{3, 6, 5, 4, 1, 1, false},
                      GoldenCase{3, 6, 5, 4, 1, 2, false},
                      GoldenCase{3, 6, 5, 4, 1, 4, false},
                      GoldenCase{7, 8, 6, 9, 1, 1, true}));

TEST(GoldenConvOracle, SaturatedThresholdsBothDirections) {
  // Thresholds at the int32 limits, ascending and descending: the
  // complemented descending rows must still count exactly.
  Rng rng(77);
  const auto layer = make_golden(rng, Shape{4, 6, 6}, 8, 1, 3, false);
  const float scales[] = {1e-30f, -1e-30f, 1e-30f, -1e-30f,
                          0.0f,   0.0f,    1.0f,   -1.0f};
  const float biases[] = {0.0f, 0.0f, 1e30f, 1e30f, 5.0f, -5.0f, 0.0f, 0.0f};
  for (int64_t c = 0; c < 8; ++c) {
    layer->bn_scales()[c] = scales[c];
    layer->bn_mean()[c] = 0.0f;
    layer->bn_var()[c] = c < 4 ? 0.0f : 1.0f;
    layer->biases()[c] = biases[c];
  }
  layer->invalidate_cached_quantization();
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(layer->binary_weights(), 3);
  const Tensor in = golden_input(rng, Shape{4, 6, 6}, 3, 0.5f);
  Tensor got(layer->output_shape()), want(layer->output_shape());
  layer->forward(in, got);
  oracle::golden_conv(*layer, packed, in, want);
  expect_same_bits(got, want);
}

TEST(GoldenConvOracle, OddShapeMatchesReferenceGemmAndThresholds) {
  // Independent of the bit-plane path: Darknet-order im2col of the codes,
  // the scalar ±1 GEMM, then each channel's threshold count.
  Rng rng(2024);
  const int64_t C = 5, H = 7, W = 9, filters = 11;
  const auto layer = make_golden(rng, Shape{C, H, W}, filters, 1, 3, false);
  const Tensor in = golden_input(rng, Shape{C, H, W}, 3, 0.5f);
  Tensor got(layer->output_shape());
  layer->forward(in, got);

  const quant::UniformActQuant in_q{3, 0.5f};
  TensorU8 codes(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i)
    codes[i] = oracle::uniform_quantize(in_q, in[i]);
  const gemm::ConvGeometry& g = layer->geometry();
  const int64_t patch = g.patch_size(), n = g.num_patches();
  const TensorU8 cols = gemm::im2col(codes, g, 0);
  std::vector<uint8_t> by_column(static_cast<size_t>(patch * n));
  for (int64_t k = 0; k < patch; ++k)
    for (int64_t j = 0; j < n; ++j)
      by_column[static_cast<size_t>(j * patch + k)] = cols[k * n + j];
  const quant::BinaryMatrix& bw = layer->binary_weights();
  std::vector<int8_t> w(static_cast<size_t>(filters * patch));
  for (int64_t r = 0; r < filters; ++r)
    for (int64_t k = 0; k < patch; ++k)
      w[static_cast<size_t>(r * patch + k)] =
          bw.row_bits[static_cast<size_t>(r)].get(k) ? 1 : -1;
  std::vector<int32_t> acc(static_cast<size_t>(n * filters));
  gemm::bitserial_gemm_reference(w.data(), filters, patch, by_column.data(), n,
                                 false, acc.data());

  const auto& th = layer->quant_thresholds();
  Tensor want(layer->output_shape());
  for (int64_t c = 0; c < filters; ++c)
    for (int64_t j = 0; j < n; ++j)
      want[c * n + j] =
          0.75f * static_cast<float>(th[static_cast<size_t>(c)].apply(
                      acc[static_cast<size_t>(j * filters + c)]));
  expect_same_bits(got, want);
}

}  // namespace
}  // namespace tincy
