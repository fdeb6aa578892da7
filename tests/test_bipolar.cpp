// Tests of the fully binarized (W1A1, bipolar ±1) path across quant,
// nn, fabric and offload — the precision class of the paper's earlier
// FINN show cases (MLP-4, CNV-6 in Table II).

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "fabric/mvtu.hpp"
#include "gemm/code_layer.hpp"
#include "nn/builder.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "quant/thresholds.hpp"

namespace tincy {
namespace {

TEST(BipolarQuant, SignEncoding) {
  const quant::BipolarActQuant q{0.5f};
  EXPECT_EQ(q.quantize(0.3f), 1);
  EXPECT_EQ(q.quantize(-0.3f), 0);
  EXPECT_EQ(q.quantize(0.0f), 1);  // ties to +1, like weight binarization
  EXPECT_FLOAT_EQ(q.dequantize(1), 0.5f);
  EXPECT_FLOAT_EQ(q.dequantize(0), -0.5f);
}

TEST(BipolarMvtu, XnorIdentityMatchesNaiveDot) {
  // The unit's memories on the shared engine: one FC column, threshold 0,
  // so each output code is the sign of the ±1·±1 dot product.
  Rng rng(11);
  const int64_t rows = 16, cols = 100;
  Tensor w(Shape{rows, cols});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const quant::BinaryMatrix bw = quant::binarize(w);
  std::vector<fabric::ThresholdChannel> th(static_cast<size_t>(rows));
  for (auto& ch : th) ch.thresholds.push_back(0);
  const fabric::Mvtu mvtu(bw, th, /*act_bits_in=*/1,
                          fabric::ActEncoding::kBipolar);
  gemm::CodeLayer layer;
  layer.geom = {cols, 1, 1, 1, 1, 0};
  layer.bits = 1;
  layer.bipolar = true;
  layer.weights = &mvtu.weights();
  layer.thresholds = &mvtu.thresholds();

  std::vector<uint8_t> column(static_cast<size_t>(cols));
  for (auto& c : column) c = rng.bernoulli(0.5) ? 1 : 0;
  std::vector<uint8_t> out(static_cast<size_t>(rows));
  gemm::run_code_layer(layer, column.data(), 1, out.data());
  for (int64_t r = 0; r < rows; ++r) {
    int32_t expected = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const int a = column[static_cast<size_t>(c)] ? 1 : -1;
      expected += static_cast<int32_t>(bw.value(r, c)) * a;
    }
    EXPECT_EQ(out[static_cast<size_t>(r)], expected >= 0 ? 1 : 0)
        << "row " << r;
  }
}

TEST(BipolarMvtu, RequiresOneBit) {
  Rng rng(12);
  Tensor w(Shape{2, 8});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  std::vector<fabric::ThresholdChannel> th(2);
  EXPECT_THROW(fabric::Mvtu(quant::binarize(w), th, /*act_bits_in=*/3,
                            fabric::ActEncoding::kBipolar),
               Error);
}

TEST(BipolarConv, RejectsPadding) {
  nn::ConvConfig cfg;
  cfg.filters = 2;
  cfg.size = 3;
  cfg.pad = true;  // padding has no bipolar zero
  cfg.activation = nn::Activation::kLinear;
  cfg.binary_weights = true;
  cfg.act_bits = 1;
  cfg.bipolar = true;
  cfg.kernel = nn::ConvKernel::kQuantReference;
  nn::ConvLayer layer(cfg, Shape{2, 6, 6});
  Tensor in(Shape{2, 6, 6}, 1.0f), out(layer.output_shape());
  EXPECT_THROW(layer.forward(in, out), Error);
}

TEST(BipolarConv, RequiresLinearActivation) {
  nn::ConvConfig cfg;
  cfg.filters = 2;
  cfg.activation = nn::Activation::kRelu;
  cfg.bipolar = true;
  cfg.act_bits = 1;
  EXPECT_THROW(nn::ConvLayer(cfg, Shape{1, 4, 4}), Error);
}

/// Builds the 1x1-conv MLP cfg with W1A1 bipolar hidden layers.
std::string bipolar_mlp_cfg(int64_t inputs, int64_t hidden, int layers) {
  std::string cfg = "[net]\nwidth=1\nheight=1\nchannels=" +
                    std::to_string(inputs) + "\n";
  for (int l = 0; l < layers; ++l)
    cfg += "[convolutional]\nbatch_normalize=1\nfilters=" +
           std::to_string(hidden) +
           "\nsize=1\nstride=1\npad=0\nactivation=linear\nbinary=1\n"
           "abits=1\nbipolar=1\nkernel=quant_reference\n"
           "in_scale=1\nout_scale=1\n";
  return cfg;
}

TEST(BipolarConv, OutputIsBipolar) {
  Rng rng(13);
  auto net = nn::build_network_from_string(bipolar_mlp_cfg(32, 8, 1));
  nn::zoo::randomize(*net, rng);
  Tensor in(Shape{32, 1, 1});
  for (int64_t i = 0; i < 32; ++i) in[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  const Tensor& out = net->forward(in);
  for (int64_t i = 0; i < out.numel(); ++i)
    EXPECT_TRUE(out[i] == 1.0f || out[i] == -1.0f) << out[i];
}

TEST(BipolarConv, ThresholdPathMatchesFloatEmulation) {
  Rng rng(14);
  for (int rep = 0; rep < 5; ++rep) {
    auto quant_net =
        nn::build_network_from_string(bipolar_mlp_cfg(64, 16, 2));
    nn::zoo::randomize(*quant_net, rng);

    // Float twin: same parameters, float kernels with binary weights; the
    // bipolar snap happens in apply_post for both.
    auto float_net = nn::build_network_from_string([&] {
      std::string cfg = "[net]\nwidth=1\nheight=1\nchannels=64\n";
      for (int l = 0; l < 2; ++l)
        cfg += "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=1\n"
               "stride=1\npad=0\nactivation=linear\nbinary=1\nabits=1\n"
               "bipolar=1\nkernel=reference\nin_scale=1\nout_scale=1\n";
      return cfg;
    }());
    for (int64_t l = 0; l < 2; ++l) {
      auto& dst = dynamic_cast<nn::ConvLayer&>(float_net->layer(l));
      const auto& src = dynamic_cast<const nn::ConvLayer&>(quant_net->layer(l));
      dst.weights() = src.weights();
      dst.biases() = src.biases();
      dst.bn_scales() = src.bn_scales();
      dst.bn_mean() = src.bn_mean();
      dst.bn_var() = src.bn_var();
      dst.invalidate_cached_quantization();
    }

    Tensor in(Shape{64, 1, 1});
    for (int64_t i = 0; i < 64; ++i)
      in[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const Tensor a = quant_net->forward(in);
    const Tensor b = float_net->forward(in);
    int64_t mismatches = 0;
    for (int64_t i = 0; i < a.numel(); ++i) mismatches += a[i] != b[i];
    // Sign boundaries can differ between float and integer evaluation only
    // when z lands exactly on 0 — essentially never with random BN.
    EXPECT_LE(mismatches, 1);
  }
}

TEST(BipolarFabric, AcceleratorBitExactAgainstCpu) {
  Rng rng(15);
  auto subnet = nn::build_network_from_string(bipolar_mlp_cfg(96, 24, 3));
  nn::zoo::randomize(*subnet, rng);
  const fabric::QnnAccelerator acc = offload::import_accelerator(*subnet);
  EXPECT_EQ(acc.num_layers(), 3);

  for (int rep = 0; rep < 10; ++rep) {
    Tensor in(Shape{96, 1, 1});
    for (int64_t i = 0; i < 96; ++i)
      in[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const Tensor expected = subnet->forward(in);
    const Tensor got = acc.forward(in);
    for (int64_t i = 0; i < got.numel(); ++i)
      EXPECT_FLOAT_EQ(got[i], expected[i]) << "rep " << rep << " i " << i;
  }
}

TEST(BipolarFabric, BatchedForwardBitExactOnMlp) {
  // MLP-4-class W1A1 network through the importer: the batched path
  // (one weight stream, B stacked frames) must be bit-identical to
  // running every frame alone.
  Rng rng(21);
  auto subnet = nn::build_network_from_string(bipolar_mlp_cfg(96, 24, 3));
  nn::zoo::randomize(*subnet, rng);
  const fabric::QnnAccelerator acc = offload::import_accelerator(*subnet);
  const int64_t batch = 5;
  const int64_t in_n = acc.input_shape().numel();
  const int64_t out_n = acc.output_shape().numel();
  std::vector<uint8_t> inputs(static_cast<size_t>(batch * in_n));
  for (auto& v : inputs) v = rng.bernoulli(0.5) ? 1 : 0;
  const std::vector<uint8_t> batched = acc.forward_codes_batched(inputs, batch);
  ASSERT_EQ(static_cast<int64_t>(batched.size()), batch * out_n);
  for (int64_t b = 0; b < batch; ++b) {
    const std::vector<uint8_t> one(
        inputs.begin() + static_cast<std::ptrdiff_t>(b * in_n),
        inputs.begin() + static_cast<std::ptrdiff_t>((b + 1) * in_n));
    const std::vector<uint8_t> expected = acc.forward_codes(one);
    for (int64_t i = 0; i < out_n; ++i)
      EXPECT_EQ(batched[static_cast<size_t>(b * out_n + i)],
                expected[static_cast<size_t>(i)])
          << "frame " << b << " element " << i;
  }
}

TEST(BipolarFabric, ConnectedLayerStageExtraction) {
  // A subnet of quantized connected layers maps to FC stages (1x1 convs).
  const std::string cfg =
      "[net]\nwidth=1\nheight=1\nchannels=40\n"
      "[connected]\noutput=12\nactivation=linear\nbinary=1\nabits=1\n"
      "bipolar=1\nin_scale=1\nout_scale=1\n"
      "[connected]\noutput=6\nactivation=linear\nbinary=1\nabits=1\n"
      "bipolar=1\nin_scale=1\nout_scale=1\n";
  Rng rng(16);
  auto subnet = nn::build_network_from_string(cfg);
  nn::zoo::randomize(*subnet, rng);
  const fabric::QnnAccelerator acc = offload::import_accelerator(*subnet);
  ASSERT_EQ(acc.num_layers(), 2);
  EXPECT_EQ(acc.spec(0).kernel, 1);
  EXPECT_EQ(acc.spec(0).in_channels, 40);

  for (int rep = 0; rep < 10; ++rep) {
    Tensor in(Shape{40, 1, 1});
    for (int64_t i = 0; i < 40; ++i)
      in[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const Tensor expected = subnet->forward(in);
    const Tensor got = acc.forward(in);
    ASSERT_EQ(got.numel(), expected.numel());
    for (int64_t i = 0; i < got.numel(); ++i)
      EXPECT_FLOAT_EQ(got[i], expected[i]);
  }
}

TEST(BipolarFabric, MixedEncodingChainRejected) {
  Rng rng(17);
  Tensor w1(Shape{8, 16}), w2(Shape{4, 8});
  for (int64_t i = 0; i < w1.numel(); ++i) w1[i] = rng.normal();
  for (int64_t i = 0; i < w2.numel(); ++i) w2[i] = rng.normal();

  fabric::QnnAccelerator acc;
  fabric::QnnLayerSpec s1;
  s1.in_channels = 16;
  s1.in_height = 1;
  s1.in_width = 1;
  s1.filters = 8;
  s1.kernel = 1;
  s1.pad = 0;
  s1.act_bits_in = 1;
  s1.act_bits_out = 1;
  s1.bipolar = true;
  std::vector<fabric::ThresholdChannel> th1(8);
  for (auto& ch : th1) ch.thresholds.push_back(0);
  acc.add_layer(s1, quant::binarize(w1), th1);

  fabric::QnnLayerSpec s2 = s1;
  s2.in_channels = 8;
  s2.filters = 4;
  s2.bipolar = false;  // encoding mismatch with upstream
  std::vector<fabric::ThresholdChannel> th2(4);
  for (auto& ch : th2) ch.thresholds.push_back(0);
  EXPECT_THROW(acc.add_layer(s2, quant::binarize(w2), th2), Error);
}

TEST(BipolarConnected, CpuForwardSnapsToSigns) {
  Rng rng(18);
  nn::ConnectedConfig cfg;
  cfg.outputs = 5;
  cfg.activation = nn::Activation::kLinear;
  cfg.binary_weights = true;
  cfg.act_bits = 1;
  cfg.bipolar = true;
  cfg.out_scale = 2.0f;
  nn::ConnectedLayer layer(cfg, Shape{10});
  for (int64_t i = 0; i < layer.weights().numel(); ++i)
    layer.weights()[i] = rng.normal();
  Tensor in(Shape{10});
  for (int64_t i = 0; i < 10; ++i) in[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  Tensor out(Shape{5});
  layer.forward(in, out);
  for (int64_t i = 0; i < 5; ++i)
    EXPECT_TRUE(out[i] == 2.0f || out[i] == -2.0f) << out[i];
}

}  // namespace
}  // namespace tincy
