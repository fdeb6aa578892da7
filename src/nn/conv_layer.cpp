#include "nn/conv_layer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "gemm/gemm_lowp.hpp"
#include "gemm/layout.hpp"
#include "gemm/gemm_simd.hpp"
#include "gemm/scratch.hpp"
#include "nn/weights_io.hpp"
#include "quant/affine.hpp"

namespace tincy::nn {

ConvLayer::ConvLayer(const ConvConfig& cfg, Shape input_shape) : cfg_(cfg) {
  TINCY_CHECK_MSG(input_shape.rank() == 3,
                  "conv input " << input_shape.to_string());
  geom_.in_channels = input_shape.channels();
  geom_.in_height = input_shape.height();
  geom_.in_width = input_shape.width();
  geom_.kernel = cfg.size;
  geom_.stride = cfg.stride;
  geom_.pad = cfg.pad ? cfg.size / 2 : 0;
  TINCY_CHECK_MSG(geom_.out_height() > 0 && geom_.out_width() > 0,
                  "degenerate conv output for input " << input_shape.to_string());
  if (cfg.bipolar) {
    TINCY_CHECK_MSG(cfg.act_bits == 1, "bipolar requires abits=1");
    TINCY_CHECK_MSG(cfg.activation == Activation::kLinear,
                    "bipolar layers use the sign itself as activation");
  }

  weights_ = Tensor(Shape{cfg.filters, geom_.patch_size()});
  biases_ = Tensor(Shape{cfg.filters});
  if (cfg.batch_normalize) {
    bn_scales_ = Tensor(Shape{cfg.filters}, 1.0f);
    bn_mean_ = Tensor(Shape{cfg.filters});
    bn_var_ = Tensor(Shape{cfg.filters}, 1.0f);
  }
}

Shape ConvLayer::output_shape() const {
  return Shape{cfg_.filters, geom_.out_height(), geom_.out_width()};
}

void ConvLayer::invalidate_cached_quantization() {
  binary_cache_.reset();
  bitserial_cache_.reset();
  binary_float_cache_.reset();
  threshold_cache_.reset();
  threshold_table_.reset();
  lowp_params_.reset();
  packed_lowp_.reset();
}

const quant::BinaryMatrix& ConvLayer::binary_weights() const {
  if (!binary_cache_) binary_cache_ = quant::binarize(weights_);
  return *binary_cache_;
}

const std::vector<quant::ThresholdChannel>& ConvLayer::quant_thresholds()
    const {
  if (threshold_cache_) return *threshold_cache_;
  TINCY_CHECK_MSG(cfg_.act_bits < 8,
                  "thresholds requested for non-quantized layer");
  std::vector<quant::ThresholdChannel> all;
  all.reserve(static_cast<size_t>(cfg_.filters));
  const int levels = cfg_.bipolar ? 1 : (1 << cfg_.act_bits) - 1;
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    // Affine form of bias/batch-norm over the raw accumulator:
    //   z = slope · acc + intercept, with acc in integer activation units.
    double slope = cfg_.in_scale;
    double intercept = biases_[c];
    if (cfg_.batch_normalize) {
      const double inv_sigma =
          1.0 / std::sqrt(static_cast<double>(bn_var_[c]) + kBatchNormEps);
      slope *= bn_scales_[c] * inv_sigma;
      intercept -= bn_scales_[c] * inv_sigma * bn_mean_[c];
    }
    quant::ThresholdChannel ct;
    ct.thresholds.reserve(static_cast<size_t>(levels));
    for (int k = 1; k <= levels; ++k) {
      // Bipolar output: the single comparator is the sign of z; unsigned
      // grids place a comparator at every half-step.
      const double target =
          cfg_.bipolar ? 0.0 : static_cast<double>(cfg_.out_scale) * (k - 0.5);
      if (slope > 0.0) {
        ct.ascending = true;
        ct.thresholds.push_back(quant::saturate_threshold(
            std::ceil((target - intercept) / slope - 1e-9)));
      } else if (slope < 0.0) {
        ct.ascending = false;
        ct.thresholds.push_back(quant::saturate_threshold(
            std::floor((target - intercept) / slope + 1e-9)));
      } else {
        // Degenerate zero slope: the level is constant in acc.
        ct.ascending = true;
        ct.thresholds.push_back(intercept >= target
                                        ? std::numeric_limits<int32_t>::min()
                                        : std::numeric_limits<int32_t>::max());
      }
    }
    all.push_back(std::move(ct));
  }
  threshold_cache_ = std::move(all);
  return *threshold_cache_;
}

std::pair<float, float> ConvLayer::bn_fold(int64_t c) const {
  if (!cfg_.batch_normalize) return {1.0f, 0.0f};
  const float inv_sigma = 1.0f / std::sqrt(bn_var_[c] + kBatchNormEps);
  const float scale = bn_scales_[c] * inv_sigma;
  return {scale, -bn_mean_[c] * scale};
}

std::optional<CodeGrid> ConvLayer::snap_grid() const {
  // Float-domain model of the A-bit activation grid (W1A1: the sign is
  // the activation).
  if (cfg_.bipolar || cfg_.act_bits < 8) return grid(cfg_.out_scale);
  return std::nullopt;
}

void ConvLayer::apply_post(Tensor& out) const {
  const int64_t n = geom_.num_patches();
  // Activation and grid snap are chosen once per layer; each channel row
  // is then one branch-free pass.
  auto rows = [&](auto act, auto snap) {
    for (int64_t c = 0; c < cfg_.filters; ++c) {
      const auto [scale, shift] = bn_fold(c);
      const float bias = biases_[c];
      float* row = out.data() + c * n;
      for (int64_t j = 0; j < n; ++j)
        row[j] = snap(act(row[j] * scale + shift + bias));
    }
  };
  auto with_snap = [&](auto snap) {
    with_activation(cfg_.activation, [&](auto act) { rows(act, snap); });
  };
  if (const std::optional<CodeGrid> g = snap_grid())
    with_snap([g = *g](float x) { return g.snap(x); });
  else
    with_snap([](float x) { return x; });
}

void ConvLayer::forward_float(const Tensor& in, Tensor& out) {
  const float* w = weights_.data();
  if (cfg_.binary_weights) {
    if (!binary_float_cache_)
      binary_float_cache_ = quant::dequantize(binary_weights());
    w = binary_float_cache_->data();
  }
  if (cfg_.kernel == ConvKernel::kFused)
    gemm::fused_conv_f32(in.data(), geom_, w, cfg_.filters, nullptr,
                         out.data());
  else
    gemm::conv_via_im2col_f32(in.data(), geom_, w, cfg_.filters, nullptr,
                              out.data());
  apply_post(out);
}

const gemm::PackedLhs& ConvLayer::lowp_weights() const {
  if (!packed_lowp_) {
    const auto [wlo, whi] = quant::min_max(weights_);
    lowp_params_ = quant::choose_affine_params(wlo, whi);
    const TensorU8 codes = quant::quantize(weights_, *lowp_params_);
    // Pack/compute split: the GEMM engine's weight panels are derived
    // once here and reused by every subsequent frame.
    packed_lowp_ = gemm::pack_lhs(codes.data(), cfg_.filters,
                                  geom_.patch_size(), lowp_params_->zero_point);
  }
  return *packed_lowp_;
}

gemm::LowpEpilogue ConvLayer::lowp_epilogue(gemm::Arena& arena) const {
  float* mul = arena.alloc<float>(cfg_.filters);
  float* add = arena.alloc<float>(cfg_.filters);
  for (int64_t c = 0; c < cfg_.filters; ++c)
    std::tie(mul[c], add[c]) = bn_fold(c);
  return {mul, add, biases_.data(), cfg_.activation, snap_grid()};
}

void ConvLayer::forward_lowp(const LayerIn& in, const LayerOut& out) {
  // The image data is quantized on the fly (paper: "an im2col
  // implementation that quantized the image data while arranging the
  // multiplicand matrix"); range calibration comes from the frame itself,
  // or from its codes by table. A frame whose output leaves as codes stays
  // in the layer for replay_emitted(); any other lives in arena scratch.
  const gemm::PackedLhs& weights = lowp_weights();
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  const int64_t pixels = geom_.in_height * geom_.in_width;
  if (out.codes && emitted_frame_.empty())
    emitted_frame_ =
        TensorU8(Shape{geom_.in_channels, geom_.in_height, geom_.in_width});
  uint8_t* frame = out.codes ? emitted_frame_.data()
                             : arena.alloc<uint8_t>(geom_.in_channels * pixels);
  const quant::AffineParams params =
      in.codes ? gemm::quantize_code_frame(in.grid, in.codes,
                                           geom_.in_channels, pixels, frame)
               : gemm::quantize_frame(in.floats->data(), in.floats->numel(),
                                      frame);
  if (!out.codes)
    return gemm::fused_conv_lowp_f32out(frame, geom_, params, weights,
                                        *lowp_params_, lowp_epilogue(arena),
                                        out.floats->data());
  emitted_params_ = params;
  gemm::fused_conv_lowp_codes(frame, geom_, params, weights, *lowp_params_,
                              lowp_epilogue(arena), out.grid, out.codes);
}

void ConvLayer::replay_emitted(Tensor& out) {
  TINCY_CHECK_MSG(!emitted_frame_.empty(), "no emitted frame to replay");
  TINCY_CHECK(out.shape() == output_shape());
  const gemm::PackedLhs& weights = lowp_weights();
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  gemm::fused_conv_lowp_f32out(emitted_frame_.data(), geom_, emitted_params_,
                               weights, *lowp_params_, lowp_epilogue(arena),
                               out.data());
}

gemm::CodeLayer ConvLayer::code_layer() const {
  TINCY_CHECK_MSG(cfg_.binary_weights && cfg_.act_bits < 8,
                  "quant reference path needs binary=1 and abits<8");
  if (!bitserial_cache_)
    bitserial_cache_ = gemm::pack_bitserial(binary_weights(), geom_.kernel);
  if (!threshold_table_) threshold_table_.emplace(quant_thresholds());
  gemm::CodeLayer layer;
  layer.geom = geom_;
  layer.bits = cfg_.act_bits;  // 1 for bipolar layers
  layer.bipolar = cfg_.bipolar;
  layer.weights = &*bitserial_cache_;
  layer.thresholds = &*threshold_table_;
  return layer;
}

void ConvLayer::forward_quant(const LayerIn& in, const LayerOut& out) {
  TINCY_CHECK_MSG((!in.codes || in.grid == grid(cfg_.in_scale)) &&
                      (!out.codes || out.grid == grid(cfg_.out_scale)),
                  "codes off the layer's grids");
  const gemm::CodeLayer layer = code_layer();
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  // Incoming floats sit on the activation grid; recover the integer codes
  // in the engine's HWC layout, and turn its HWC output codes into CHW
  // floats only where floats leave, each in one pass. Zero padding is
  // exact on the unsigned grid: real 0.0 is code 0.
  const int64_t pixels = geom_.in_height * geom_.in_width;
  uint8_t* quantized =
      in.codes ? nullptr : arena.alloc<uint8_t>(geom_.in_channels * pixels);
  if (quantized)
    gemm::quantize_to_hwc(grid(cfg_.in_scale), in.floats->data(),
                          geom_.in_channels, pixels, quantized);
  uint8_t* out_codes =
      out.codes ? out.codes : arena.alloc<uint8_t>(output_shape().numel());
  gemm::run_code_layer(layer, in.codes ? in.codes : quantized, 1, out_codes);
  if (out.floats)
    gemm::dequantize_to_chw(grid(cfg_.out_scale), out_codes, cfg_.filters,
                            geom_.num_patches(), out.floats->data());
}

bool ConvLayer::computes_on_codes() const {
  return cfg_.kernel == ConvKernel::kQuantReference && cfg_.binary_weights &&
         cfg_.act_bits >= 1 && cfg_.act_bits < 8;
}

MaybeGrid ConvLayer::read_grid(MaybeGrid offered) const {
  if (computes_on_codes()) return grid(cfg_.in_scale);
  if (cfg_.kernel == ConvKernel::kLowp && offered && offered->exact())
    return offered;
  return std::nullopt;
}

MaybeGrid ConvLayer::write_grid(MaybeGrid /*in*/, MaybeGrid wanted) const {
  if (computes_on_codes()) return grid(cfg_.out_scale);
  const Activation a = cfg_.activation;
  if (cfg_.kernel == ConvKernel::kLowp && wanted && !wanted->bipolar &&
      (a == Activation::kLinear || a == Activation::kRelu ||
       a == Activation::kLeaky))
    return wanted;
  return std::nullopt;
}

void ConvLayer::forward(const LayerIn& in, const LayerOut& out) {
  TINCY_CHECK(!in.floats ||
              in.floats->shape() == Shape({geom_.in_channels, geom_.in_height,
                                           geom_.in_width}));
  TINCY_CHECK(!out.floats || out.floats->shape() == output_shape());
  switch (cfg_.kernel) {
    case ConvKernel::kReference:
    case ConvKernel::kFused:
      TINCY_CHECK_MSG(in.floats && out.floats, "a float conv has no codes");
      forward_float(*in.floats, *out.floats);
      break;
    case ConvKernel::kLowp:
      forward_lowp(in, out);
      break;
    case ConvKernel::kQuantReference:
      forward_quant(in, out);
      break;
  }
}

void ConvLayer::forward(const Tensor& in, Tensor& out) {
  forward(LayerIn{&in}, LayerOut{&out});
}

void ConvLayer::load_weights(WeightReader& r) {
  // Darknet order: biases, then BN statistics, then weights.
  r.read(biases_);
  if (cfg_.batch_normalize) {
    r.read(bn_scales_);
    r.read(bn_mean_);
    r.read(bn_var_);
  }
  r.read(weights_);
  invalidate_cached_quantization();
}

void ConvLayer::save_weights(WeightWriter& w) const {
  w.write(biases_);
  if (cfg_.batch_normalize) {
    w.write(bn_scales_);
    w.write(bn_mean_);
    w.write(bn_var_);
  }
  w.write(weights_);
}

OpsCount ConvLayer::ops() const {
  OpsCount oc;
  oc.ops = 2 * geom_.patch_size() * cfg_.filters * geom_.num_patches();
  oc.precision = precision();
  return oc;
}

Precision ConvLayer::precision() const {
  if (cfg_.binary_weights && cfg_.act_bits < 8) return {1, cfg_.act_bits};
  return cfg_.kernel == ConvKernel::kLowp ? kW8A8 : kFloat;
}

}  // namespace tincy::nn
