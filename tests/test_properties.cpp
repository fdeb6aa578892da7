// Cross-module property sweeps: the golden-model contract (fabric ==
// CPU quantized reference) over a grid of layer geometries and precisions,
// plus geometry sweeps for pooling and quantization invariants.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "core/rng.hpp"
#include "fabric/accelerator.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "quant/affine.hpp"

namespace tincy {
namespace {

using Geometry =
    std::tuple<int64_t, int64_t, int64_t, int, bool, bool>;
// (in_channels, filters, stride, abits, batch_norm, with_pool)

class FabricEquivalence : public ::testing::TestWithParam<Geometry> {};

TEST_P(FabricEquivalence, AcceleratorMatchesCpuGoldenModel) {
  const auto [in_c, filters, stride, abits, bn, pool] = GetParam();
  const float scale = 2.0f / static_cast<float>((1 << abits) - 1);
  std::string cfg = "[net]\nwidth=10\nheight=10\nchannels=" +
                    std::to_string(in_c) + "\n";
  cfg += "[convolutional]\n";
  if (bn) cfg += "batch_normalize=1\n";
  cfg += "filters=" + std::to_string(filters) +
         "\nsize=3\nstride=" + std::to_string(stride) +
         "\npad=1\nactivation=relu\nbinary=1\nabits=" +
         std::to_string(abits) + "\nkernel=quant_reference\nin_scale=" +
         std::to_string(scale) + "\nout_scale=" + std::to_string(scale) +
         "\n";
  if (pool) cfg += "[maxpool]\nsize=2\nstride=2\n";

  Rng rng(static_cast<uint64_t>(in_c * 1000 + filters * 10 + stride + abits));
  auto subnet = nn::build_network_from_string(cfg);
  nn::zoo::randomize(*subnet, rng);
  const fabric::QnnAccelerator acc = offload::import_accelerator(*subnet);

  for (int rep = 0; rep < 3; ++rep) {
    Tensor in(Shape{in_c, 10, 10});
    for (int64_t i = 0; i < in.numel(); ++i)
      in[i] = scale * static_cast<float>(
                          rng.uniform_int(0, (1 << abits) - 1));
    const Tensor expected = subnet->forward(in);
    const Tensor got = acc.forward(in);
    ASSERT_EQ(got.shape(), expected.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
      ASSERT_EQ(got[i], expected[i])
          << "rep " << rep << " elem " << i << " cfg\n"
          << cfg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometryGrid, FabricEquivalence,
    ::testing::Values(Geometry{1, 4, 1, 1, false, false},
                      Geometry{1, 4, 1, 1, true, true},
                      Geometry{3, 8, 1, 2, true, false},
                      Geometry{3, 8, 2, 2, false, true},
                      Geometry{4, 16, 1, 3, true, true},
                      Geometry{8, 4, 2, 3, true, false},
                      Geometry{2, 32, 1, 4, true, true},
                      Geometry{16, 8, 1, 3, false, false},
                      Geometry{5, 7, 2, 3, true, true},
                      Geometry{7, 3, 1, 2, true, true}));

class PoolGeometry
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};
// (input size, pool size, stride)

TEST_P(PoolGeometry, MatchesNaiveWindowMax) {
  const auto [size, k, stride] = GetParam();
  Rng rng(static_cast<uint64_t>(size * 100 + k * 10 + stride));
  Tensor in(Shape{3, size, size});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(-2.0f, 2.0f);
  nn::MaxPoolLayer pool({k, stride}, in.shape());
  Tensor out(pool.output_shape());
  pool.forward(in, out);

  const int64_t pad_left = (k - 1) / 2;
  for (int64_t c = 0; c < 3; ++c)
    for (int64_t oh = 0; oh < out.shape().height(); ++oh)
      for (int64_t ow = 0; ow < out.shape().width(); ++ow) {
        float best = -1e30f;
        for (int64_t kh = 0; kh < k; ++kh)
          for (int64_t kw = 0; kw < k; ++kw) {
            const int64_t ih = oh * stride - pad_left + kh;
            const int64_t iw = ow * stride - pad_left + kw;
            if (ih < 0 || ih >= size || iw < 0 || iw >= size) continue;
            best = std::max(best, in.at(c, ih, iw));
          }
        ASSERT_EQ(out.at(c, oh, ow), best)
            << size << " " << k << " " << stride;
      }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PoolGeometry,
                         ::testing::Values(std::tuple{8, 2, 2},
                                           std::tuple{9, 2, 2},
                                           std::tuple{13, 2, 1},
                                           std::tuple{7, 3, 2},
                                           std::tuple{6, 3, 1},
                                           std::tuple{10, 3, 3}));

TEST(ExtremeBatchNorm, SaturatedThresholdsKeepGoldenAndFabricIdentical) {
  // Near-zero variance and scale, huge means and biases and a zero scale
  // drive the folded thresholds past the int32 range (an undefined cast
  // before saturation). Golden model and fabric still agree bit for bit.
  const std::string cfg =
      "[net]\nwidth=10\nheight=10\nchannels=4\n"
      "[convolutional]\nbatch_normalize=1\nfilters=12\nsize=3\nstride=1\n"
      "pad=1\nactivation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n"
      "in_scale=0.5\nout_scale=0.5\n"
      "[maxpool]\nsize=2\nstride=2\n";
  Rng rng(4242);
  auto subnet = nn::build_network_from_string(cfg);
  nn::zoo::randomize(*subnet, rng);
  auto& conv = dynamic_cast<nn::ConvLayer&>(subnet->layer(0));
  struct Stats { float scale, mean, var, bias; };
  const Stats extremes[] = {
      {1e-30f, 0.0f, 0.0f, 0.0f},    {-1e-30f, 0.0f, 0.0f, 0.0f},
      {1.0f, 1e30f, 1.0f, 0.0f},     {1.0f, -1e30f, 1.0f, 0.0f},
      {-1.0f, 1e30f, 1e-30f, 0.0f},  {1e30f, 0.0f, 0.0f, 0.5f},
      {0.0f, 0.0f, 1.0f, 3.0f},      {0.0f, 0.0f, 1.0f, -3.0f},
      {1e-30f, 1e30f, 0.0f, 1e30f},  {1.0f, 0.0f, 1.0f, -1e30f},
      {2e-7f, 0.0f, 0.0f, 0.0f},     {1.0f, 0.0f, 1.0f, 0.0f}};
  for (int64_t c = 0; c < 12; ++c) {
    const Stats& s = extremes[c];
    conv.bn_scales()[c] = s.scale;
    conv.bn_mean()[c] = s.mean;
    conv.bn_var()[c] = s.var;
    conv.biases()[c] = s.bias;
  }
  conv.invalidate_cached_quantization();
  int64_t saturated = 0;
  for (const auto& ch : conv.quant_thresholds())
    for (const int32_t t : ch.thresholds)
      saturated += t == std::numeric_limits<int32_t>::min() ||
                   t == std::numeric_limits<int32_t>::max();
  EXPECT_GT(saturated, 0) << "no threshold reached the int32 limits";

  const fabric::QnnAccelerator acc = offload::import_accelerator(*subnet);
  for (int rep = 0; rep < 3; ++rep) {
    Tensor in(Shape{4, 10, 10});
    for (int64_t i = 0; i < in.numel(); ++i)
      in[i] = 0.5f * static_cast<float>(rng.uniform_int(0, 7));
    const Tensor expected = subnet->forward(in);
    const Tensor got = acc.forward(in);
    ASSERT_EQ(got.shape(), expected.shape());
    for (int64_t i = 0; i < got.numel(); ++i)
      ASSERT_EQ(got[i], expected[i]) << "rep " << rep << " elem " << i;
  }
}

class AffineSweep : public ::testing::TestWithParam<std::pair<float, float>> {
};

TEST_P(AffineSweep, RoundTripAndZeroInvariants) {
  const auto [lo, hi] = GetParam();
  const quant::AffineParams p = quant::choose_affine_params(lo, hi);
  // Zero exact.
  EXPECT_FLOAT_EQ(p.dequantize(static_cast<uint8_t>(p.zero_point)), 0.0f);
  // Round trip within half a step over the whole declared range.
  Rng rng(static_cast<uint64_t>(lo * 100 + hi * 7 + 1000000));
  for (int i = 0; i < 300; ++i) {
    const float x = rng.uniform(std::min(lo, 0.0f), std::max(hi, 0.0f));
    EXPECT_NEAR(p.dequantize(p.quantize(x)), x, p.scale / 2 + 1e-6f);
  }
  // Monotonicity of the code mapping.
  EXPECT_LE(p.quantize(lo), p.quantize(hi));
}

INSTANTIATE_TEST_SUITE_P(Ranges, AffineSweep,
                         ::testing::Values(std::pair{0.0f, 1.0f},
                                           std::pair{-1.0f, 1.0f},
                                           std::pair{-0.01f, 0.01f},
                                           std::pair{-100.0f, 5.0f},
                                           std::pair{0.5f, 2.0f},
                                           std::pair{-3.0f, -0.5f}));

}  // namespace
}  // namespace tincy
