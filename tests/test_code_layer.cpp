// The code-domain W1A<bits> layer engine (gemm/code_layer.hpp) against
// its independent scalar oracle (code_layer_oracle.hpp), through each of
// its callers: the engine itself, fabric::QnnAccelerator, nn::ConvLayer
// and nn::Network::forward's code hand-off, whose every activation must
// be bit-identical to running the layers one by one on floats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "code_layer_oracle.hpp"
#include "core/rng.hpp"
#include "fabric/accelerator.hpp"
#include "gemm/code_layer.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/zoo.hpp"
#include "quant/binary.hpp"
#include "quant/ternary.hpp"

namespace tincy {
namespace {

using oracle::LayerRig;
using oracle::Weights;

struct Case {
  std::string name;
  gemm::ConvGeometry g;
  int64_t rows;
  int bits;
  Weights weights;
  int64_t pool_size, pool_stride;
  int64_t batch;
};

class CodeLayerOracle : public ::testing::TestWithParam<Case> {};

TEST_P(CodeLayerOracle, EngineMatchesScalarOracle) {
  const Case& c = GetParam();
  Rng rng(4242 + static_cast<uint64_t>(c.rows * 31 + c.g.in_height));
  const LayerRig rig(rng, c.g, c.rows, c.bits, c.weights);
  const gemm::CodeLayer layer = rig.layer(c.pool_size, c.pool_stride);
  // The oracle works on CHW maps, the engine on HWC ones.
  const std::vector<uint8_t> in = rig.random_codes(rng, c.batch);
  const int64_t in_n = layer.in_numel();
  std::vector<uint8_t> in_hwc(in.size());
  for (int64_t f = 0; f < c.batch; ++f)
    oracle::to_hwc(in.data() + f * in_n, c.g.in_channels,
                   c.g.in_height * c.g.in_width, in_hwc.data() + f * in_n);
  const Shape out_shape = layer.out_shape();
  const int64_t out_n = out_shape.numel();
  std::vector<uint8_t> got(static_cast<size_t>(c.batch * out_n), 0xAB);
  gemm::run_code_layer(layer, in_hwc.data(), c.batch, got.data());
  std::vector<uint8_t> want(static_cast<size_t>(out_n));
  for (int64_t f = 0; f < c.batch; ++f) {
    const std::vector<uint8_t> chw =
        rig.oracle(in.data() + f * in_n, c.pool_size, c.pool_stride);
    ASSERT_EQ(static_cast<int64_t>(chw.size()), out_n);
    oracle::to_hwc(chw.data(), out_shape.channels(),
                   out_shape.height() * out_shape.width(), want.data());
    for (int64_t i = 0; i < out_n; ++i)
      ASSERT_EQ(got[static_cast<size_t>(f * out_n + i)],
                want[static_cast<size_t>(i)])
          << "frame " << f << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layers, CodeLayerOracle,
    ::testing::Values(
        // Binary W1A3, the Tincy hidden conv with its size-2 pools.
        Case{"BinaryPool2s2", {16, 12, 12, 3, 1, 1}, 20, 3, Weights::kBinary, 2, 2, 1},
        Case{"BinaryPool2s2OddBatch3", {9, 7, 9, 3, 1, 1}, 33, 3, Weights::kBinary, 2, 2, 3},
        Case{"BinaryPool2s1Batch2", {8, 13, 13, 3, 1, 1}, 16, 3, Weights::kBinary, 2, 1, 2},
        Case{"BinaryPool2s1Odd", {5, 5, 7, 3, 1, 1}, 7, 3, Weights::kBinary, 2, 1, 1},
        // A 1×1 map: an FC-style stage, and a 3×3 conv seeing one tap.
        Case{"Binary1x1MapPool2s2Batch4", {40, 1, 1, 1, 1, 0}, 24, 3, Weights::kBinary, 2, 2, 4},
        Case{"Binary1x1MapK3Pool2s1", {12, 1, 1, 3, 1, 1}, 17, 3, Weights::kBinary, 2, 1, 2},
        // Wide rows through the 16-output pool blocks, odd width.
        Case{"BinaryWidePool2s2", {3, 6, 71, 3, 1, 1}, 16, 3, Weights::kBinary, 2, 2, 1},
        Case{"BinaryWidePool2s1", {3, 5, 70, 3, 1, 1}, 16, 3, Weights::kBinary, 2, 1, 1},
        // The generic pool path (size 3 pads both sides).
        Case{"BinaryPool3s2", {6, 9, 8, 3, 1, 1}, 10, 3, Weights::kBinary, 3, 2, 2},
        Case{"BinaryStride2NoPool", {7, 11, 10, 3, 2, 1}, 9, 2, Weights::kBinary, 0, 0, 2},
        Case{"BinaryOneBit", {64, 6, 6, 3, 1, 1}, 48, 1, Weights::kBinary, 2, 2, 1},
        Case{"BinaryEightBit", {4, 5, 5, 3, 1, 1}, 18, 8, Weights::kBinary, 0, 0, 1},
        // Ternary weights (zero weights contribute nothing).
        Case{"TernaryPool2s2Batch2", {16, 8, 8, 3, 1, 1}, 21, 3, Weights::kTernary, 2, 2, 2},
        Case{"TernaryTwoBit", {70, 4, 5, 3, 1, 1}, 33, 2, Weights::kTernary, 0, 0, 1},
        // Bipolar W1A1: valid convs and FC stages only.
        Case{"BipolarPool2s2Batch3", {10, 10, 10, 3, 1, 0}, 18, 1, Weights::kBipolar, 2, 2, 3},
        Case{"BipolarFcBatch5", {100, 1, 1, 1, 1, 0}, 16, 1, Weights::kBipolar, 0, 0, 5}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(CodeLayer, BipolarRejectsPadding) {
  Rng rng(7);
  const LayerRig rig(rng, {4, 5, 5, 3, 1, 1}, 8, 1, Weights::kBipolar);
  const std::vector<uint8_t> in = rig.random_codes(rng, 1);
  std::vector<uint8_t> out(8 * 25);
  EXPECT_THROW(gemm::run_code_layer(rig.layer(0, 0), in.data(), 1, out.data()),
               Error);
}

TEST(CodeLayer, ThresholdTableRejectsRaggedChannels) {
  std::vector<quant::ThresholdChannel> th(2);
  th[0].thresholds = {1, 2, 3};
  th[1].thresholds = {1, 2};
  EXPECT_THROW(gemm::ThresholdTable{th}, Error);
}

TEST(CodeLayer, ZeroTernaryWeightsContributeNothing) {
  quant::TernaryMatrix tw;
  tw.rows = 1;
  tw.cols = 4;
  tw.nonzero.emplace_back(4);
  tw.positive.emplace_back(4);
  tw.row_scale.push_back(1.0f);
  tw.nonzero[0].set(0, true);
  tw.positive[0].set(0, true);  // +1
  tw.nonzero[0].set(2, true);   // −1 (nonzero, not positive)
  // Indices 1 and 3 are exact zeros. Thresholds 1..7: code = clamp(acc).
  std::vector<quant::ThresholdChannel> th(1);
  for (int k = 1; k <= 7; ++k) th[0].thresholds.push_back(k);
  const gemm::BitSerialWeights packed = gemm::pack_bitserial(tw);
  const gemm::ThresholdTable table(th);
  gemm::CodeLayer layer;
  layer.geom = {4, 1, 1, 1, 1, 0};
  layer.bits = 3;
  layer.weights = &packed;
  layer.thresholds = &table;
  const std::vector<uint8_t> column{5, 7, 2, 7};
  uint8_t out = 0;
  gemm::run_code_layer(layer, column.data(), 1, &out);
  EXPECT_EQ(out, 5 - 2);
}

// --- The code max pool on its own ---------------------------------------

TEST(CodePool, MatchesOracleOnOddGeometries) {
  Rng rng(99);
  for (const int64_t stride : {1, 2, 3})
    for (const int64_t size : {1, 2, 3})
      for (const int64_t h : {1, 2, 5, 13})
        for (const int64_t w : {1, 2, 17, 33, 64}) {
          const gemm::PoolGeometry p{3, h, w, size, stride};
          std::vector<uint8_t> in(static_cast<size_t>(3 * h * w));
          for (auto& v : in) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
          const int64_t out_hw = p.out_height() * p.out_width();
          const int64_t out_n = 3 * out_hw;
          std::vector<uint8_t> in_hwc(in.size()),
              got(static_cast<size_t>(out_n), 0xCD),
              chw(static_cast<size_t>(out_n)), want(static_cast<size_t>(out_n));
          // The engine pools HWC maps, the oracle CHW ones.
          oracle::to_hwc(in.data(), 3, h * w, in_hwc.data());
          gemm::max_pool_codes(p, in_hwc.data(), got.data());
          oracle::max_pool_codes(p, in.data(), chw.data());
          oracle::to_hwc(chw.data(), 3, out_hw, want.data());
          EXPECT_EQ(got, want) << "size " << size << " stride " << stride
                               << " map " << h << "x" << w;
        }
}

// --- The callers ----------------------------------------------------------

TEST(CodeLayerCallers, AcceleratorBatchedPassMatchesOracle) {
  Rng rng(31);
  const LayerRig rig(rng, {12, 9, 11, 3, 1, 1}, 24, 3, Weights::kBinary);
  fabric::QnnLayerSpec spec;
  spec.in_channels = 12;
  spec.in_height = 9;
  spec.in_width = 11;
  spec.filters = 24;
  spec.pool_after = true;
  Tensor real(Shape{24, 12 * 9});
  fabric::QnnAccelerator acc;
  // The rig's weights, re-binarized from their ±1 values.
  for (int64_t i = 0; i < real.numel(); ++i)
    real[i] = static_cast<float>(rig.w[static_cast<size_t>(i)]);
  acc.add_layer(spec, quant::binarize(real), rig.thresholds);
  const int64_t batch = 3, in_n = 12 * 9 * 11;
  const int64_t out_n = spec.output_shape().numel();
  const std::vector<uint8_t> in = rig.random_codes(rng, batch);
  std::vector<uint8_t> out(static_cast<size_t>(batch * out_n));
  acc.run_layer_batched(0, in, batch, out);
  for (int64_t f = 0; f < batch; ++f) {
    const std::vector<uint8_t> want = rig.oracle(in.data() + f * in_n, 2, 2);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + f * out_n))
        << "frame " << f;
  }
}

TEST(CodeLayerCallers, GoldenConvFloatForwardMatchesOracle) {
  Rng rng(32);
  nn::ConvConfig cfg;
  cfg.filters = 19;
  cfg.activation = nn::Activation::kRelu;
  cfg.batch_normalize = true;
  cfg.binary_weights = true;
  cfg.act_bits = 3;
  cfg.in_scale = 0.5f;
  cfg.out_scale = 0.25f;
  cfg.kernel = nn::ConvKernel::kQuantReference;
  nn::ConvLayer conv(cfg, Shape{6, 7, 8});
  for (int64_t i = 0; i < conv.weights().numel(); ++i)
    conv.weights()[i] = rng.normal();
  for (int64_t c = 0; c < cfg.filters; ++c) {
    conv.biases()[c] = rng.normal(0.0f, 2.0f);
    conv.bn_scales()[c] = rng.bernoulli(0.3) ? -1.0f : 1.0f;
  }
  std::vector<int8_t> w;
  const quant::BinaryMatrix& bm = conv.binary_weights();
  for (int64_t r = 0; r < bm.rows; ++r)
    for (int64_t k = 0; k < bm.cols; ++k)
      w.push_back(static_cast<int8_t>(bm.value(r, k)));
  Tensor in(Shape{6, 7, 8});
  std::vector<uint8_t> codes;
  for (int64_t i = 0; i < in.numel(); ++i) {
    codes.push_back(static_cast<uint8_t>(rng.uniform_int(0, 7)));
    in[i] = 0.5f * static_cast<float>(codes.back());
  }
  Tensor out(conv.output_shape());
  conv.forward(in, out);
  const std::vector<uint8_t> want = oracle::code_layer(
      w, cfg.filters, conv.geometry(), conv.quant_thresholds(), false, 0, 0,
      codes.data());
  for (int64_t i = 0; i < out.numel(); ++i)
    ASSERT_EQ(out[i], 0.25f * static_cast<float>(want[static_cast<size_t>(i)]))
        << "element " << i;
}

// --- Network::forward's code hand-off -------------------------------------

/// A second network with the parameters of `net`, both from `cfg`.
std::unique_ptr<nn::Network> twin(const std::string& cfg, uint64_t seed) {
  auto net = nn::zoo::build(cfg);
  Rng rng(seed);
  nn::zoo::randomize(*net, rng);
  return net;
}

/// Uniform in [0, scale).
Tensor random_input(const nn::Network& net, uint64_t seed,
                    float scale = 1.0f) {
  Rng rng(seed);
  Tensor x(net.input_shape());
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 1.0f) * scale;
  return x;
}

/// forward() on one network, run_layer on floats layer by layer on its
/// twin: every layer_output must be byte-identical.
void expect_forward_matches_run_layer(const std::string& cfg,
                                      float input_scale = 1.0f) {
  const auto coded = twin(cfg, 5);
  const auto floats = twin(cfg, 5);
  for (const uint64_t frame : {11u, 12u}) {
    const Tensor x = random_input(*coded, frame, input_scale);
    coded->forward(x);
    const Tensor* in = &x;
    for (int64_t i = 0; i < floats->num_layers(); ++i)
      in = &floats->run_layer(i, *in);
    for (int64_t i = 0; i < coded->num_layers(); ++i) {
      const Tensor& got = coded->layer_output(i);
      const Tensor& want = floats->layer_output(i);
      ASSERT_EQ(got.shape(), want.shape()) << "layer " << i;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<size_t>(got.numel()) * sizeof(float)),
                0)
          << "layer " << i << " frame " << frame;
    }
  }
}

TEST(CodeHandoff, TincyW1A3ForwardMatchesPerLayerFloats) {
  // 96 → L0 48 → pools 24, 12, 6, 3, 3: odd maps at the stride-1 pool.
  expect_forward_matches_run_layer(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 96,
      nn::zoo::CpuProfile::kOptimized));
}

TEST(CodeHandoff, Cnv6ForwardMatchesPerLayerFloats) {
  expect_forward_matches_run_layer(nn::zoo::cnv6_cfg());
}

TEST(CodeHandoff, MismatchedGridsFallBackToFloats) {
  // Codes pass L0 → pool → L2 (grids match), L2 → pool → L4 does not
  // (in_scale differs), the bipolar pair hands codes on again.
  const std::string cfg =
      "[net]\nwidth=12\nheight=12\nchannels=4\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=2\nout_scale=0.5\n"
      "kernel=quant_reference\n\n"
      "[maxpool]\nsize=2\nstride=2\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=2\nin_scale=0.5\nout_scale=0.25\n"
      "kernel=quant_reference\n\n"
      "[maxpool]\nsize=2\nstride=1\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=2\nin_scale=0.5\n"
      "kernel=quant_reference\n\n"
      "[convolutional]\nfilters=6\nsize=3\npad=0\nactivation=linear\n"
      "binary=1\nabits=1\nbipolar=1\nkernel=quant_reference\n\n"
      "[convolutional]\nfilters=5\nsize=1\npad=0\nactivation=linear\n"
      "binary=1\nabits=1\nbipolar=1\nkernel=quant_reference\n";
  expect_forward_matches_run_layer(cfg);
}

TEST(CodeHandoff, InexactGridsFallBackToFloats) {
  // Grids that match but are not exact (CodeGrid::exact), so forward()
  // must hand floats: with a negative scale the codes order against their
  // values (the pool), and at 6e37 codes 6 and 7 both dequantise to inf
  // and come back as 7 (the pool and the conv).
  const auto ladder = [](const std::string& scale, const std::string& bits) {
    const std::string conv =
        "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\npad=1\n"
        "activation=relu\nbinary=1\nabits=" +
        bits + "\nkernel=quant_reference\nin_scale=" + scale +
        "\nout_scale=" + scale + "\n\n";
    return "[net]\nwidth=8\nheight=8\nchannels=3\n\n" + conv +
           "[maxpool]\nsize=2\nstride=2\n\n" + conv + conv;
  };
  expect_forward_matches_run_layer(ladder("-0.5", "2"), -2.0f);
  expect_forward_matches_run_layer(ladder("6e37", "3"), 3e38f);
}

/// Whether forward() ran layer i of `net` (a kLowp conv) as a producer
/// emitting its consumer's codes: only then is there a frame to replay.
bool emitted(nn::Network& net, int64_t i) {
  Tensor out(net.layer(i).output_shape());
  try {
    net.layer(i).replay_emitted(out);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// An 8-bit first layer (activation `act`) feeding the quantized conv
/// `consumer`.
std::string lowp_head(const std::string& act, const std::string& consumer) {
  return "[net]\nwidth=10\nheight=10\nchannels=3\n\n"
         "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\nstride=1\n"
         "pad=1\nactivation=" +
         act + "\nkernel=lowp\n\n" + consumer;
}

TEST(CodeHandoff, LowpProducerEmitsItsConsumersCodes) {
  const std::string a3 =
      "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nin_scale=0.5\n"
      "kernel=quant_reference\n";
  for (const std::string act : {"relu", "leaky", "linear"}) {
    const std::string cfg = lowp_head(act, a3);
    expect_forward_matches_run_layer(cfg);
    const auto net = twin(cfg, 5);
    net->forward(random_input(*net, 1));
    EXPECT_TRUE(emitted(*net, 0)) << act;
  }
  // A logistic producer is not an emitter: its consumer quantises.
  const std::string cfg = lowp_head("logistic", a3);
  expect_forward_matches_run_layer(cfg);
  const auto net = twin(cfg, 5);
  net->forward(random_input(*net, 1));
  EXPECT_FALSE(emitted(*net, 0));
}

TEST(CodeHandoff, BipolarOrInexactConsumerGridsDoNotTriggerEmission) {
  const std::vector<std::string> consumers = {
      // Bipolar: the consumer reads signs, not the unsigned grid.
      "[convolutional]\nfilters=6\nsize=3\npad=0\nactivation=linear\n"
      "binary=1\nabits=1\nbipolar=1\nkernel=quant_reference\n",
      // Inexact: 6e37 · 7 overflows, so codes 6 and 7 both mean inf.
      "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nin_scale=6e37\n"
      "kernel=quant_reference\n",
      // Inexact: a negative scale orders codes against their values.
      "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=2\nin_scale=-0.5\n"
      "kernel=quant_reference\n"};
  for (const std::string& consumer : consumers) {
    const std::string cfg = lowp_head("relu", consumer);
    expect_forward_matches_run_layer(cfg);
    const auto net = twin(cfg, 5);
    net->forward(random_input(*net, 1));
    EXPECT_FALSE(emitted(*net, 0)) << consumer;
  }
}

TEST(CodeHandoff, TincyW1A3L0EmitsL1Codes) {
  const auto net = twin(nn::zoo::tiny_yolo_cfg(
                            nn::zoo::TinyVariant::kTincy,
                            nn::zoo::QuantMode::kW1A3, 64,
                            nn::zoo::CpuProfile::kOptimized),
                        3);
  net->forward(random_input(*net, 1));
  EXPECT_TRUE(emitted(*net, 0));
}

TEST(CodeHandoff, LayerOutputFollowsTheLatestRun) {
  const std::string cfg = nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 64,
      nn::zoo::CpuProfile::kOptimized);
  const auto net = twin(cfg, 8);
  const auto ref = twin(cfg, 8);
  const Tensor x = random_input(*net, 1), y = random_input(*net, 2);
  // A run_layer after forward() replaces that layer's activation ...
  net->forward(x);
  const Tensor l3_in = ref->run_layer(2, ref->run_layer(1, ref->run_layer(0, y)));
  const Tensor& ran = net->run_layer(3, l3_in);
  EXPECT_EQ(net->layer_output(3), ran);
  EXPECT_EQ(net->layer_output(3), ref->run_layer(3, l3_in));
  // ... until the next forward() emits codes for it again.
  net->forward(x);
  const Tensor* in = &x;
  for (int64_t i = 0; i <= 3; ++i) in = &ref->run_layer(i, *in);
  EXPECT_EQ(net->layer_output(3), *in);
  // The same holds for L0, which emits L1's codes and replays its floats.
  net->run_layer(0, y);
  EXPECT_EQ(net->layer_output(0), ref->run_layer(0, y));
  net->forward(x);
  EXPECT_EQ(net->layer_output(0), ref->run_layer(0, x));
}

}  // namespace
}  // namespace tincy
