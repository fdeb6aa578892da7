#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/rng.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"

namespace tincy::nn {
namespace {

/// Builds a random quantized conv layer (binary=1, A3) over the geometry.
std::unique_ptr<ConvLayer> make_quant_conv(Rng& rng, int64_t in_c, int64_t size,
                                           int64_t filters, int64_t stride,
                                           bool batch_norm, float in_scale,
                                           float out_scale) {
  ConvConfig cfg;
  cfg.filters = filters;
  cfg.size = 3;
  cfg.stride = stride;
  cfg.pad = true;
  cfg.activation = Activation::kRelu;
  cfg.batch_normalize = batch_norm;
  cfg.binary_weights = true;
  cfg.act_bits = 3;
  cfg.in_scale = in_scale;
  cfg.out_scale = out_scale;
  cfg.kernel = ConvKernel::kQuantReference;
  auto layer = std::make_unique<ConvLayer>(cfg, Shape{in_c, size, size});
  for (int64_t i = 0; i < layer->weights().numel(); ++i)
    layer->weights()[i] = rng.normal();
  for (int64_t c = 0; c < filters; ++c) {
    layer->biases()[c] = rng.normal(0.0f, 0.5f);
    if (batch_norm) {
      layer->bn_scales()[c] = rng.normal(1.0f, 0.4f);  // can go negative
      layer->bn_mean()[c] = rng.normal(0.0f, 0.5f);
      layer->bn_var()[c] = rng.uniform(0.5f, 1.5f);
    }
  }
  layer->invalidate_cached_quantization();
  return layer;
}

/// Input on the A3 grid of `scale`.
Tensor grid_input(Rng& rng, Shape shape, float scale) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = scale * static_cast<float>(rng.uniform_int(0, 7));
  return t;
}

using Case = std::tuple<int64_t, int64_t, int64_t, int64_t, bool>;
// (in_channels, size, filters, stride, batch_norm)

class QuantConvProperty : public ::testing::TestWithParam<Case> {};

TEST_P(QuantConvProperty, ThresholdPathMatchesFloatEmulation) {
  // The integer threshold path (the fabric's golden model) must agree with
  // the float-domain emulation (±1 weights, BN in float, uniform act
  // quantization) — up to one activation level at exact rounding
  // boundaries, which float/double evaluation may resolve differently.
  const auto [in_c, size, filters, stride, bn] = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(in_c * 31 + filters));
  const float in_scale = 0.25f, out_scale = 0.5f;

  const auto quant =
      make_quant_conv(rng, in_c, size, filters, stride, bn, in_scale, out_scale);

  // Float-domain twin: same parameters, reference float kernel.
  ConvConfig fcfg = quant->config();
  fcfg.kernel = ConvKernel::kReference;
  ConvLayer twin(fcfg, Shape{in_c, size, size});
  twin.weights() = quant->weights();
  twin.biases() = quant->biases();
  if (bn) {
    twin.bn_scales() = quant->bn_scales();
    twin.bn_mean() = quant->bn_mean();
    twin.bn_var() = quant->bn_var();
  }
  twin.invalidate_cached_quantization();

  const Tensor in = grid_input(rng, Shape{in_c, size, size}, in_scale);
  Tensor a(quant->output_shape()), b(twin.output_shape());
  quant->forward(in, a);
  twin.forward(in, b);

  int64_t mismatches = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (diff > 1e-5f) {
      // Any disagreement must be exactly one grid level (boundary case).
      EXPECT_NEAR(diff, out_scale, 1e-4f) << "at " << i;
      ++mismatches;
    }
  }
  EXPECT_LE(mismatches, a.numel() / 50 + 1)
      << "too many boundary disagreements";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, QuantConvProperty,
    ::testing::Values(Case{1, 6, 4, 1, false}, Case{3, 8, 8, 1, true},
                      Case{4, 8, 16, 2, true}, Case{8, 5, 3, 1, true},
                      Case{2, 12, 6, 2, false}, Case{16, 6, 32, 1, true}));

TEST(QuantConv, OutputOnGrid) {
  Rng rng(77);
  const auto layer =
      make_quant_conv(rng, 3, 8, 8, 1, true, 0.25f, 0.5f);
  const Tensor in = grid_input(rng, Shape{3, 8, 8}, 0.25f);
  Tensor out(layer->output_shape());
  layer->forward(in, out);
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float code = out[i] / 0.5f;
    EXPECT_NEAR(code, std::round(code), 1e-5f);
    EXPECT_GE(code, -1e-5f);
    EXPECT_LE(code, 7.0f + 1e-5f);
  }
}

TEST(QuantConv, ThresholdsMonotoneAscending) {
  Rng rng(78);
  const auto layer = make_quant_conv(rng, 3, 6, 16, 1, true, 0.25f, 0.5f);
  for (const auto& ch : layer->quant_thresholds()) {
    for (size_t k = 1; k < ch.thresholds.size(); ++k) {
      if (ch.ascending)
        EXPECT_LE(ch.thresholds[k - 1], ch.thresholds[k]);
      else
        EXPECT_GE(ch.thresholds[k - 1], ch.thresholds[k]);
    }
  }
}

TEST(QuantConv, NegativeBnSlopeFlipsComparison) {
  // A channel with negative batch-norm gamma must produce a descending
  // threshold channel whose levels still match the float emulation.
  ConvConfig cfg;
  cfg.filters = 1;
  cfg.size = 3;
  cfg.pad = true;
  cfg.activation = Activation::kRelu;
  cfg.batch_normalize = true;
  cfg.binary_weights = true;
  cfg.act_bits = 3;
  cfg.in_scale = 0.5f;
  cfg.out_scale = 0.5f;
  cfg.kernel = ConvKernel::kQuantReference;
  ConvLayer layer(cfg, Shape{1, 4, 4});
  layer.weights().fill(1.0f);
  layer.biases()[0] = 1.0f;
  layer.bn_scales()[0] = -0.8f;  // negative slope
  layer.bn_mean()[0] = 0.0f;
  layer.bn_var()[0] = 1.0f;
  layer.invalidate_cached_quantization();

  const auto& th = layer.quant_thresholds();
  ASSERT_EQ(th.size(), 1u);
  EXPECT_FALSE(th[0].ascending);
  // Large accumulators now mean *small* outputs.
  EXPECT_GE(th[0].apply(-100), th[0].apply(100));
}

TEST(QuantConv, ThresholdsRequireQuantizedLayer) {
  ConvConfig cfg;
  cfg.filters = 2;
  ConvLayer layer(cfg, Shape{1, 4, 4});
  EXPECT_THROW(layer.quant_thresholds(), Error);
}

TEST(QuantConv, MaxPoolCommutesWithGrid) {
  // max over grid values stays on the grid: the reason the fabric can pool
  // codes directly.
  Rng rng(79);
  Tensor t(Shape{1, 4, 4});
  for (int64_t i = 0; i < 16; ++i)
    t[i] = 0.5f * static_cast<float>(rng.uniform_int(0, 7));
  MaxPoolLayer pool({2, 2}, t.shape());
  Tensor out(pool.output_shape());
  pool.forward(t, out);
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float code = out[i] / 0.5f;
    EXPECT_NEAR(code, std::round(code), 1e-6f);
  }
}

}  // namespace
}  // namespace tincy::nn
