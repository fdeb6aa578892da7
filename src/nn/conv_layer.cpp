#include "nn/conv_layer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gemm/gemm_lowp.hpp"
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
  lowp_codes_.reset();
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

void ConvLayer::apply_post(Tensor& out) const {
  const int64_t n = geom_.num_patches();
  // Activation and grid snap are chosen once per layer; each channel row
  // is then one branch-free pass.
  auto rows = [&](auto act, auto snap) {
    for (int64_t c = 0; c < cfg_.filters; ++c) {
      float scale = 1.0f, shift = 0.0f;
      if (cfg_.batch_normalize) {
        const float inv_sigma =
            1.0f / std::sqrt(bn_var_[c] + kBatchNormEps);
        scale = bn_scales_[c] * inv_sigma;
        shift = -bn_mean_[c] * scale;
      }
      const float bias = biases_[c];
      float* row = out.data() + c * n;
      for (int64_t j = 0; j < n; ++j)
        row[j] = snap(act(row[j] * scale + shift + bias));
    }
  };
  auto with_snap = [&](auto snap) {
    with_activation(cfg_.activation, [&](auto act) { rows(act, snap); });
  };
  if (cfg_.bipolar || cfg_.act_bits < 8) {
    // Float-domain model of the A-bit activation grid (W1A1: the sign is
    // the activation): snap to codes.
    const CodeGrid g = grid(cfg_.out_scale);
    with_snap([g](float x) { return g.snap(x); });
  } else {
    with_snap([](float x) { return x; });
  }
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

void ConvLayer::forward_lowp(const Tensor& in, Tensor& out) {
  // The image data is quantized on the fly (paper: "an im2col
  // implementation that quantized the image data while arranging the
  // multiplicand matrix"); range calibration comes from the frame itself.
  const auto [lo, hi] = quant::min_max(in);
  const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);
  if (!lowp_codes_) {
    const auto [wlo, whi] = quant::min_max(weights_);
    lowp_params_ = quant::choose_affine_params(wlo, whi);
    lowp_codes_ = quant::quantize(weights_, *lowp_params_);
    // Pack/compute split: the GEMM engine's weight panels are derived
    // once here and reused by every subsequent frame.
    packed_lowp_ = gemm::pack_lhs(lowp_codes_->data(), cfg_.filters,
                                  geom_.patch_size(), lowp_params_->zero_point);
  }
  gemm::fused_conv_lowp_f32out(in.data(), geom_, in_params, *packed_lowp_,
                               *lowp_params_, nullptr, out.data());
  apply_post(out);
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

bool ConvLayer::computes_on_codes() const {
  return cfg_.kernel == ConvKernel::kQuantReference && cfg_.binary_weights &&
         cfg_.act_bits >= 1 && cfg_.act_bits < 8;
}

std::optional<CodeGrid> ConvLayer::code_output(const CodeGrid& in) const {
  if (!computes_on_codes() || in != grid(cfg_.in_scale)) return std::nullopt;
  return grid(cfg_.out_scale);
}

std::optional<CodeGrid> ConvLayer::code_input() const {
  if (!computes_on_codes()) return std::nullopt;
  return grid(cfg_.in_scale);
}

void ConvLayer::forward_codes(const uint8_t* in, uint8_t* out) {
  gemm::run_code_layer(code_layer(), in, 1, out);
}

void ConvLayer::forward_quant_reference(const Tensor& in, Tensor& out) {
  const gemm::CodeLayer layer = code_layer();
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  // Incoming floats sit on the activation grid; recover the integer codes.
  // Zero padding is exact on the unsigned grid: real 0.0 is code 0.
  uint8_t* codes = arena.alloc<uint8_t>(in.numel());
  grid(cfg_.in_scale).quantize(in.data(), in.numel(), codes);
  uint8_t* out_codes = arena.alloc<uint8_t>(out.numel());
  gemm::run_code_layer(layer, codes, 1, out_codes);
  grid(cfg_.out_scale).dequantize(out_codes, out.numel(), out.data());
}

void ConvLayer::forward(const Tensor& in, Tensor& out) {
  TINCY_CHECK(in.shape() ==
              Shape({geom_.in_channels, geom_.in_height, geom_.in_width}));
  TINCY_CHECK(out.shape() == output_shape());
  switch (cfg_.kernel) {
    case ConvKernel::kReference:
    case ConvKernel::kFused:
      forward_float(in, out);
      break;
    case ConvKernel::kLowp:
      forward_lowp(in, out);
      break;
    case ConvKernel::kQuantReference:
      forward_quant_reference(in, out);
      break;
  }
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
