#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "gemm/gemm_lowp.hpp"
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
  EXPECT_NE(net.snapshot().find_histogram("net.layer.0.convolutional.ms"),
            nullptr);
}

// --- Codes in, floats out: a float consumer reading its producer's codes

/// forward() on zoo:tincy-w1a3 at `size` (L13 reads L12's codes) against
/// run_layer on floats on a twin with the same parameters: every
/// layer_output must be byte-identical.
void expect_tincy_forward_matches_run_layer(int64_t size) {
  const std::string cfg = zoo::tiny_yolo_cfg(
      zoo::TinyVariant::kTincy, zoo::QuantMode::kW1A3, size,
      zoo::CpuProfile::kOptimized);
  auto coded = zoo::build(cfg);
  auto floats = zoo::build(cfg);
  Rng a(23), b(23);
  zoo::randomize(*coded, a);
  zoo::randomize(*floats, b);
  for (const uint64_t seed : {31u, 32u}) {
    Rng rng(seed);
    const Tensor x = random_tensor(rng, coded->input_shape(), 0.0f, 1.0f);
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
          << "layer " << i << " at " << size << ", input " << seed;
    }
  }
}

TEST(CodesInFloatsOut, TincyW1A3At416MatchesRunLayerOnEveryLayer) {
  expect_tincy_forward_matches_run_layer(416);
}

TEST(CodesInFloatsOut, TincyW1A3At64MatchesRunLayerOnEveryLayer) {
  expect_tincy_forward_matches_run_layer(64);
}

/// A float layer that can read codes on one grid, recording how forward()
/// fed it.
class CodeReadingSpy final : public Layer {
 public:
  CodeReadingSpy(Shape shape, CodeGrid grid) : shape_(shape), grid_(grid) {}
  std::string type_name() const override { return "spy"; }
  Shape output_shape() const override { return shape_; }
  void forward(const Tensor& in, Tensor& out) const override {
    ++float_calls;
    out = in;
  }
  MaybeGrid read_grid(MaybeGrid offered) const override {
    if (offered == grid_) return grid_;
    return std::nullopt;
  }
  void forward(const LayerIn& in, const LayerOut& out) const override {
    if (!in.codes) return forward(*in.floats, *out.floats);
    ++code_calls;
    first_code = in.codes[0];
    const int64_t C = shape_.channels(), P = out.floats->numel() / C;
    for (int64_t c = 0; c < C; ++c)
      for (int64_t p = 0; p < P; ++p)
        (*out.floats)[c * P + p] = in.grid.dequantize(in.codes[p * C + c]);
  }
  mutable int float_calls = 0, code_calls = 0;
  mutable uint8_t first_code = 0;

 private:
  Shape shape_;
  CodeGrid grid_;
};

TEST(CodesInFloatsOut, ForwardHandsCodesToAFloatLayerThatReadsThem) {
  const auto head = build_network_from_string(
      "[net]\nwidth=6\nheight=6\nchannels=4\n\n"
      "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\npad=1\n"
      "activation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n"
      "out_scale=0.5\n");
  Rng rng(41);
  zoo::randomize(*head, rng);
  const CodeGrid grid{3, 0.5f, false};
  auto reading = std::make_unique<CodeReadingSpy>(head->output_shape(), grid);
  auto other = std::make_unique<CodeReadingSpy>(head->output_shape(),
                                                CodeGrid{3, 0.25f, false});
  CodeReadingSpy& spy = *reading;
  CodeReadingSpy& spy_other = *other;
  head->add(std::move(reading));
  head->add(std::move(other));  // after a float layer: floats in
  const Tensor x = random_tensor(rng, head->input_shape(), 0.0f, 1.0f);
  const Tensor out = head->forward(x);
  EXPECT_EQ(spy.code_calls, 1);
  EXPECT_EQ(spy.float_calls, 0);
  EXPECT_EQ(spy_other.code_calls, 0);
  EXPECT_EQ(spy_other.float_calls, 1);
  // The spy's floats are the conv's dequantised codes, and the conv's
  // layer_output still dequantises them on read.
  EXPECT_EQ(head->layer_output(1), head->layer_output(0));
  EXPECT_EQ(out, head->layer_output(0));
}

/// The codes of `hwc` (channels × pixels, HWC) dequantised into CHW floats.
Tensor dequantised_chw(const CodeGrid& g, const std::vector<uint8_t>& hwc,
                       int64_t channels, int64_t pixels) {
  Tensor t(Shape{channels, pixels, 1});
  for (int64_t c = 0; c < channels; ++c)
    for (int64_t p = 0; p < pixels; ++p)
      t[c * pixels + p] =
          g.dequantize(hwc[static_cast<size_t>(p * channels + c)]);
  return t;
}

TEST(CodesInFloatsOut, CodeFrameTableEqualsQuantizeFrame) {
  Rng rng(43);
  const std::vector<CodeGrid> grids = {
      {3, 1.0f, false}, {3, 0.25f, false}, {3, 0.37f, false},
      {1, 0.5f, false}, {2, 3.0f, false},  {4, 0.1f, false},
      {1, 0.75f, true}};
  for (const CodeGrid& g : grids) {
    const int top = g.bipolar ? 1 : (1 << g.bits) - 1;
    // (lowest, highest) code of each frame: all equal, all 0, all top,
    // only two codes, and every code.
    std::vector<std::pair<int, int>> spans = {{0, 0}, {top, top}, {0, top}};
    for (int c = 0; c <= top; ++c) spans.push_back({c, c});
    for (int k = 0; k < 4; ++k) {
      const int lo = static_cast<int>(rng.uniform_int(0, top));
      spans.push_back({lo, static_cast<int>(rng.uniform_int(lo, top))});
    }
    for (const auto& [lo, hi] : spans)
      for (const auto& [C, P] : {std::pair<int64_t, int64_t>{5, 7}, {16, 37}}) {
        SCOPED_TRACE(::testing::Message()
                     << "bits " << g.bits << " scale " << g.scale
                     << (g.bipolar ? " bipolar" : "") << " codes " << lo
                     << ".." << hi << " map " << C << "x" << P);
        // Codes drawn from {lo, hi} only, plus the two ends once each.
        std::vector<uint8_t> hwc(static_cast<size_t>(C * P));
        for (auto& v : hwc)
          v = static_cast<uint8_t>(rng.bernoulli(0.5) ? lo : hi);
        hwc.front() = static_cast<uint8_t>(lo);
        hwc.back() = static_cast<uint8_t>(hi);
        const Tensor floats = dequantised_chw(g, hwc, C, P);
        std::vector<uint8_t> want(hwc.size()), got(hwc.size());
        const quant::AffineParams want_params =
            gemm::quantize_frame(floats.data(), floats.numel(), want.data());
        const quant::AffineParams got_params =
            gemm::quantize_code_frame(g, hwc.data(), C, P, got.data());
        EXPECT_EQ(got_params, want_params);
        EXPECT_EQ(got, want);
      }
  }
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
