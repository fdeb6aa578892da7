#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/rng.hpp"
#include "nn/activation.hpp"
#include "nn/builder.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/describe.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/network.hpp"
#include "nn/region_layer.hpp"
#include "nn/weights_io.hpp"
#include "nn/zoo.hpp"

namespace tincy::nn {
namespace {

Tensor random_tensor(Rng& rng, Shape shape, float lo = -1.0f, float hi = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
  return t;
}

TEST(Activation, Values) {
  EXPECT_FLOAT_EQ(apply(Activation::kLinear, -2.0f), -2.0f);
  EXPECT_FLOAT_EQ(apply(Activation::kRelu, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(apply(Activation::kRelu, 3.0f), 3.0f);
  EXPECT_FLOAT_EQ(apply(Activation::kLeaky, -2.0f), -0.2f);
  EXPECT_NEAR(apply(Activation::kLogistic, 0.0f), 0.5f, 1e-6f);
}

TEST(Activation, ParseRoundTrip) {
  for (const auto a : {Activation::kLinear, Activation::kRelu,
                       Activation::kLeaky, Activation::kLogistic})
    EXPECT_EQ(parse_activation(activation_name(a)), a);
  EXPECT_THROW(parse_activation("swish"), Error);
}

TEST(Activation, DerivativeMatchesFiniteDifference) {
  Rng rng(2);
  for (const auto a : {Activation::kRelu, Activation::kLeaky,
                       Activation::kLogistic, Activation::kLinear}) {
    for (int i = 0; i < 100; ++i) {
      float x = rng.uniform(-3.0f, 3.0f);
      if (std::fabs(x) < 0.01f) x = 0.5f;  // keep clear of the ReLU kink
      const float h = 1e-3f;
      const float fd = (apply(a, x + h) - apply(a, x - h)) / (2 * h);
      EXPECT_NEAR(derivative(a, x), fd, 1e-2f);
    }
  }
}

TEST(ConvLayer, OutputShapeSameConv) {
  ConvConfig cfg;
  cfg.filters = 8;
  cfg.size = 3;
  cfg.stride = 1;
  cfg.pad = true;
  ConvLayer layer(cfg, Shape{3, 16, 16});
  EXPECT_EQ(layer.output_shape(), Shape({8, 16, 16}));
}

TEST(ConvLayer, OutputShapeStride2) {
  ConvConfig cfg;
  cfg.filters = 16;
  cfg.stride = 2;
  cfg.pad = true;
  ConvLayer layer(cfg, Shape{3, 416, 416});
  EXPECT_EQ(layer.output_shape(), Shape({16, 208, 208}));
}

TEST(ConvLayer, FusedMatchesReference) {
  Rng rng(5);
  ConvConfig cfg;
  cfg.filters = 6;
  cfg.activation = Activation::kLeaky;
  cfg.batch_normalize = true;
  cfg.kernel = ConvKernel::kReference;
  ConvLayer ref(cfg, Shape{3, 10, 10});
  cfg.kernel = ConvKernel::kFused;
  ConvLayer fused(cfg, Shape{3, 10, 10});

  // Same weights in both.
  const Tensor w = random_tensor(rng, ref.weights().shape());
  const Tensor b = random_tensor(rng, Shape{6});
  ref.weights() = w;
  fused.weights() = w;
  ref.biases() = b;
  fused.biases() = b;
  for (int64_t c = 0; c < 6; ++c) {
    const float s = rng.uniform(0.5f, 1.5f), m = rng.normal(0.0f, 0.2f),
                v = rng.uniform(0.5f, 1.5f);
    ref.bn_scales()[c] = fused.bn_scales()[c] = s;
    ref.bn_mean()[c] = fused.bn_mean()[c] = m;
    ref.bn_var()[c] = fused.bn_var()[c] = v;
  }

  const Tensor in = random_tensor(rng, Shape{3, 10, 10});
  Tensor out_ref(ref.output_shape()), out_fused(fused.output_shape());
  ref.forward(in, out_ref);
  fused.forward(in, out_fused);
  for (int64_t i = 0; i < out_ref.numel(); ++i)
    EXPECT_NEAR(out_ref[i], out_fused[i], 1e-4f);
}

TEST(ConvLayer, LowpTracksFloat) {
  Rng rng(7);
  ConvConfig cfg;
  cfg.filters = 4;
  cfg.activation = Activation::kLinear;
  cfg.kernel = ConvKernel::kReference;
  ConvLayer ref(cfg, Shape{3, 8, 8});
  cfg.kernel = ConvKernel::kLowp;
  ConvLayer lowp(cfg, Shape{3, 8, 8});
  const Tensor w = random_tensor(rng, ref.weights().shape(), -0.3f, 0.3f);
  ref.weights() = w;
  lowp.weights() = w;
  lowp.invalidate_cached_quantization();

  const Tensor in = random_tensor(rng, Shape{3, 8, 8}, 0.0f, 1.0f);
  Tensor out_ref(ref.output_shape()), out_lowp(lowp.output_shape());
  ref.forward(in, out_ref);
  lowp.forward(in, out_lowp);
  double err = 0.0, mag = 0.0;
  for (int64_t i = 0; i < out_ref.numel(); ++i) {
    err += std::fabs(out_ref[i] - out_lowp[i]);
    mag += std::fabs(out_ref[i]);
  }
  EXPECT_LT(err / mag, 0.05) << "relative L1 error too large";
}

TEST(ConvLayer, BinaryWeightFlagBinarizesFloatPath) {
  Rng rng(9);
  ConvConfig cfg;
  cfg.filters = 2;
  cfg.activation = Activation::kLinear;
  cfg.binary_weights = true;
  ConvLayer layer(cfg, Shape{1, 4, 4});
  layer.weights() = random_tensor(rng, layer.weights().shape(), -2.0f, 2.0f);
  layer.invalidate_cached_quantization();

  // Expected: conv with sign(w).
  ConvConfig fcfg = cfg;
  fcfg.binary_weights = false;
  ConvLayer flayer(fcfg, Shape{1, 4, 4});
  for (int64_t i = 0; i < layer.weights().numel(); ++i)
    flayer.weights()[i] = layer.weights()[i] >= 0.0f ? 1.0f : -1.0f;

  const Tensor in = random_tensor(rng, Shape{1, 4, 4});
  Tensor a(layer.output_shape()), b(layer.output_shape());
  layer.forward(in, a);
  flayer.forward(in, b);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(ConvLayer, OpsMatchPaperFormula) {
  ConvConfig cfg;
  cfg.filters = 16;
  cfg.size = 3;
  cfg.stride = 1;
  cfg.pad = true;
  ConvLayer layer(cfg, Shape{3, 416, 416});
  EXPECT_EQ(layer.ops().ops, 149520384);  // Table I layer 1
}

TEST(MaxPool, HalvingPool) {
  MaxPoolLayer pool({2, 2}, Shape{2, 8, 8});
  EXPECT_EQ(pool.output_shape(), Shape({2, 4, 4}));
  Tensor in(Shape{2, 8, 8});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = static_cast<float>(i % 13);
  Tensor out(pool.output_shape());
  pool.forward(in, out);
  // Every output is the max of its 2x2 block.
  for (int64_t c = 0; c < 2; ++c)
    for (int64_t y = 0; y < 4; ++y)
      for (int64_t x = 0; x < 4; ++x) {
        float m = -1e9f;
        for (int64_t dy = 0; dy < 2; ++dy)
          for (int64_t dx = 0; dx < 2; ++dx)
            m = std::max(m, in.at(c, 2 * y + dy, 2 * x + dx));
        EXPECT_EQ(out.at(c, y, x), m);
      }
}

TEST(MaxPool, Stride1SamePoolKeepsSize) {
  // Tiny YOLO's last pool: size 2, stride 1 on 13x13 stays 13x13.
  MaxPoolLayer pool({2, 1}, Shape{512, 13, 13});
  EXPECT_EQ(pool.output_shape(), Shape({512, 13, 13}));
}

TEST(MaxPool, PaperOpsAccounting) {
  // Table I layer 2: 416x416 input, 2x2 stride 2 → 173,056 ops.
  MaxPoolLayer pool2({2, 2}, Shape{16, 416, 416});
  EXPECT_EQ(pool2.ops().ops, 173056);
  // Table I layer 12: 13x13, size 2 stride 1 → 676 ops.
  MaxPoolLayer pool12({2, 1}, Shape{512, 13, 13});
  EXPECT_EQ(pool12.ops().ops, 676);
}

TEST(Connected, ForwardMatchesNaive) {
  Rng rng(11);
  ConnectedConfig cfg;
  cfg.outputs = 5;
  cfg.activation = Activation::kRelu;
  ConnectedLayer layer(cfg, Shape{3, 2, 2});
  EXPECT_EQ(layer.inputs(), 12);
  layer.weights() = random_tensor(rng, Shape{5, 12});
  layer.biases() = random_tensor(rng, Shape{5});

  const Tensor in = random_tensor(rng, Shape{3, 2, 2});
  Tensor out(Shape{5});
  layer.forward(in, out);
  for (int64_t o = 0; o < 5; ++o) {
    float acc = layer.biases()[o];
    for (int64_t i = 0; i < 12; ++i) acc += layer.weights().at2(o, i) * in[i];
    EXPECT_NEAR(out[o], apply(Activation::kRelu, acc), 1e-5f);
  }
}

TEST(Region, SquashesExpectedChannels) {
  RegionConfig cfg;
  cfg.classes = 2;
  cfg.num = 1;
  cfg.anchors = {1.0f, 1.0f};
  RegionLayer layer(cfg, Shape{7, 2, 2});
  Rng rng(13);
  const Tensor in = random_tensor(rng, Shape{7, 2, 2}, -3.0f, 3.0f);
  Tensor out(in.shape());
  layer.forward(in, out);
  const int64_t cell = 4;
  for (int64_t i = 0; i < cell; ++i) {
    // x, y, obj logistic-squashed into (0, 1).
    for (const int64_t ch : {0L, 1L, 4L}) {
      EXPECT_GT(out[ch * cell + i], 0.0f);
      EXPECT_LT(out[ch * cell + i], 1.0f);
    }
    // w, h untouched.
    EXPECT_EQ(out[2 * cell + i], in[2 * cell + i]);
    EXPECT_EQ(out[3 * cell + i], in[3 * cell + i]);
    // class softmax sums to 1.
    EXPECT_NEAR(out[5 * cell + i] + out[6 * cell + i], 1.0f, 1e-5f);
  }
}

TEST(Region, ChannelMismatchThrows) {
  RegionConfig cfg;  // 5 anchors × 25 = 125 channels expected
  EXPECT_THROW(RegionLayer(cfg, Shape{100, 13, 13}), Error);
}

TEST(Network, ForwardChainsShapes) {
  Network net(Shape{3, 16, 16});
  ConvConfig c1;
  c1.filters = 4;
  net.add(std::make_unique<ConvLayer>(c1, net.input_shape()));
  net.add(std::make_unique<MaxPoolLayer>(MaxPoolConfig{2, 2},
                                         net.layers().back()->output_shape()));
  EXPECT_EQ(net.output_shape(), Shape({4, 8, 8}));
  EXPECT_EQ(net.layer_input_shape(1), Shape({4, 16, 16}));

  Rng rng(17);
  const Tensor in = random_tensor(rng, Shape{3, 16, 16});
  const Tensor& out = net.forward(in);
  EXPECT_EQ(out.shape(), Shape({4, 8, 8}));
  EXPECT_GE(net.last_layer_ms(0), 0.0);
}

TEST(WeightsIO, RoundTripThroughStream) {
  Rng rng(19);
  ConvConfig cfg;
  cfg.filters = 3;
  cfg.batch_normalize = true;
  ConvLayer a(cfg, Shape{2, 6, 6});
  a.weights() = random_tensor(rng, a.weights().shape());
  a.biases() = random_tensor(rng, Shape{3});
  for (int64_t c = 0; c < 3; ++c) {
    a.bn_scales()[c] = rng.uniform(0.5f, 1.5f);
    a.bn_mean()[c] = rng.normal();
    a.bn_var()[c] = rng.uniform(0.5f, 1.5f);
  }

  std::stringstream buffer;
  WeightsHeader header;
  header.seen = 12345;
  WeightWriter writer(buffer, header);
  a.save_weights(writer);

  WeightReader reader(buffer);
  EXPECT_EQ(reader.header().seen, 12345u);
  ConvLayer b(cfg, Shape{2, 6, 6});
  b.load_weights(reader);
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.biases(), b.biases());
  EXPECT_EQ(a.bn_scales(), b.bn_scales());
}

TEST(WeightsIO, TruncatedStreamThrows) {
  std::stringstream buffer;
  buffer.write("abc", 3);
  EXPECT_THROW(WeightReader reader(buffer), Error);
}

// Every runtime kernel must agree with the float oracle on the same layer:
// float kernels tightly, the 8-bit path within quantization error, and the
// bit-exact golden model up to one activation level at rounding ties.
struct KernelCase {
  ConvKernel kernel;
  double max_rel_l1;
};

class ConvKernelAgreement : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ConvKernelAgreement, MatchesReferenceKernel) {
  const auto [kernel, max_rel_l1] = GetParam();
  const bool quant = kernel == ConvKernel::kQuantReference;
  Rng rng(23);
  ConvConfig ref_cfg;
  ref_cfg.filters = 16;  // Tincy YOLO layer 0: 16 filters over 3 channels
  ref_cfg.size = 3;
  ref_cfg.stride = 2;
  ref_cfg.pad = true;
  ref_cfg.activation = Activation::kLeaky;
  ref_cfg.batch_normalize = true;
  if (quant) {
    // The golden model's W1A3 semantics; the reference kernel runs the
    // same layer as its float-domain emulation.
    ref_cfg.activation = Activation::kRelu;
    ref_cfg.binary_weights = true;
    ref_cfg.act_bits = 3;
    ref_cfg.in_scale = 0.25f;
    ref_cfg.out_scale = 0.5f;
  }
  ref_cfg.kernel = ConvKernel::kReference;
  ConvLayer ref(ref_cfg, Shape{3, 13, 13});

  ConvConfig cfg = ref_cfg;
  cfg.kernel = kernel;
  ConvLayer layer(cfg, Shape{3, 13, 13});

  const Tensor w = random_tensor(rng, ref.weights().shape(), -0.4f, 0.4f);
  const Tensor b = random_tensor(rng, Shape{16}, -0.1f, 0.1f);
  ref.weights() = w;
  layer.weights() = w;
  ref.biases() = b;
  layer.biases() = b;
  for (int64_t c = 0; c < 16; ++c) {
    const float s = rng.uniform(0.8f, 1.2f), m = rng.normal(0.0f, 0.1f),
                v = rng.uniform(0.8f, 1.2f);
    ref.bn_scales()[c] = s;
    layer.bn_scales()[c] = s;
    ref.bn_mean()[c] = m;
    layer.bn_mean()[c] = m;
    ref.bn_var()[c] = v;
    layer.bn_var()[c] = v;
  }
  ref.invalidate_cached_quantization();
  layer.invalidate_cached_quantization();

  Tensor in = random_tensor(rng, Shape{3, 13, 13}, 0.0f, 1.0f);
  if (quant)  // the golden model reads codes on the A3 input grid
    for (int64_t i = 0; i < in.numel(); ++i)
      in[i] = 0.25f * std::round(7.0f * in[i]);
  Tensor out_ref(ref.output_shape()), out(layer.output_shape());
  ref.forward(in, out_ref);
  layer.forward(in, out);

  double err = 0.0, mag = 0.0;
  for (int64_t i = 0; i < out.numel(); ++i) {
    err += std::abs(out[i] - out_ref[i]);
    mag += std::abs(out_ref[i]);
  }
  EXPECT_LE(err / mag, max_rel_l1)
      << "kernel enum " << static_cast<int>(kernel);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ConvKernelAgreement,
    ::testing::Values(KernelCase{ConvKernel::kReference, 0.0},
                      KernelCase{ConvKernel::kFused, 1e-4},
                      KernelCase{ConvKernel::kLowp, 0.08},
                      KernelCase{ConvKernel::kQuantReference, 0.02}));

// Legacy cfg `kernel=` names build the path that replaced them: outputs
// are bit-identical to the canonical name's, and the layer table prints
// the canonical name.
struct AliasCase {
  const char* legacy;
  const char* canonical;
};

class ConvKernelAlias : public ::testing::TestWithParam<AliasCase> {};

TEST_P(ConvKernelAlias, BuildsTheCanonicalKernel) {
  const auto [legacy, canonical] = GetParam();
  const auto cfg = [](const char* kernel) {
    return std::string(
               "[net]\nwidth=13\nheight=13\nchannels=3\n\n"
               "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=3\n"
               "stride=2\npad=1\nactivation=leaky\nkernel=") +
           kernel + "\n";
  };
  const auto a = build_network_from_string(cfg(legacy));
  const auto b = build_network_from_string(cfg(canonical));
  Rng ra(29), rb(29);
  zoo::randomize(*a, ra);
  zoo::randomize(*b, rb);
  Rng in_rng(30);
  const Tensor in = random_tensor(in_rng, a->input_shape(), 0.0f, 1.0f);
  const Tensor out_a = a->forward(in);
  const Tensor& out_b = b->forward(in);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  for (int64_t i = 0; i < out_a.numel(); ++i) ASSERT_EQ(out_a[i], out_b[i]) << i;

  const std::string table = summary(*a);
  EXPECT_EQ(table, summary(*b));
  EXPECT_NE(table.find(std::string("  ") + canonical + "\n"),
            std::string::npos)
      << table;
  EXPECT_EQ(to_cfg(*a), to_cfg(*b));
}

INSTANTIATE_TEST_SUITE_P(
    LegacyNames, ConvKernelAlias,
    ::testing::Values(AliasCase{"fused_lowp", "lowp"},
                      AliasCase{"first16_acc16", "lowp"},
                      AliasCase{"first16_acc32", "lowp"},
                      AliasCase{"first16_f32", "fused"}));

}  // namespace
}  // namespace tincy::nn
