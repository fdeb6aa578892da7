#include "nn/conv_layer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
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

const ConvLayer::ThresholdTable& ConvLayer::threshold_table() const {
  if (threshold_table_) return *threshold_table_;
  const auto& channels = quant_thresholds();
  ThresholdTable t;
  const int64_t filters = cfg_.filters;
  t.levels = cfg_.bipolar ? 1 : (1 << cfg_.act_bits) - 1;
  t.thresholds.resize(static_cast<size_t>(t.levels * filters));
  for (int64_t c = 0; c < filters; ++c) {
    const auto& ch = channels[static_cast<size_t>(c)];
    t.flip.push_back(ch.ascending ? 0 : ~0);
    for (int64_t k = 0; k < t.levels; ++k)
      t.thresholds[static_cast<size_t>(k * filters + c)] =
          ch.thresholds[static_cast<size_t>(k)] ^ t.flip.back();
  }
  const quant::BipolarActQuant out_bq{cfg_.out_scale};
  for (int64_t level = 0; level <= t.levels; ++level)
    t.level_value.push_back(
        cfg_.bipolar ? out_bq.dequantize(static_cast<uint8_t>(level))
                     : cfg_.out_scale * static_cast<float>(level));
  threshold_table_ = std::move(t);
  return *threshold_table_;
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
  if (cfg_.bipolar) {
    // W1A1: the sign is the activation.
    const quant::BipolarActQuant q{cfg_.out_scale};
    with_snap([q](float x) { return q.dequantize(q.quantize(x)); });
  } else if (cfg_.act_bits < 8) {
    // Float-domain model of the A-bit activation grid: snap to codes.
    const quant::UniformActQuant q{cfg_.act_bits, cfg_.out_scale};
    with_snap([q](float x) { return q.dequantize(q.quantize(x)); });
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

namespace {

/// Output levels of `Lanes` adjacent channels of one accumulator column.
template <int64_t Lanes>
void count_levels(const int32_t* acc, const int32_t* flip,
                  const int32_t* thresholds, int64_t levels, int64_t filters,
                  uint8_t* level) {
  int32_t x[Lanes], count[Lanes] = {};
  for (int64_t i = 0; i < Lanes; ++i) x[i] = acc[i] ^ flip[i];
  for (int64_t k = 0; k < levels; ++k)
    for (int64_t i = 0; i < Lanes; ++i)
      count[i] += x[i] >= thresholds[k * filters + i];
  for (int64_t i = 0; i < Lanes; ++i) level[i] = static_cast<uint8_t>(count[i]);
}

/// The golden model's epilogue: each accumulator becomes the emitted value
/// of the level its channel's thresholds give it.
struct ThresholdEpilogue {
  const int32_t* thresholds;  ///< levels × filters, see ThresholdTable
  const int32_t* flip;
  const float* level_value;
  int64_t levels, filters, n;
  float* out;

  void operator()(int64_t j0, int64_t count, const int32_t* acc) const {
    constexpr int64_t kLanes = 16;
    auto& arena = gemm::thread_arena();
    gemm::ScratchScope scope(arena);
    uint8_t* level = arena.alloc<uint8_t>(count * filters);
    for (int64_t jj = 0; jj < count; ++jj) {
      const int32_t* a = acc + jj * filters;
      uint8_t* lv = level + jj * filters;
      int64_t c = 0;
      for (; c + kLanes <= filters; c += kLanes)
        count_levels<kLanes>(a + c, flip + c, thresholds + c, levels, filters,
                             lv + c);
      for (; c < filters; ++c)
        count_levels<1>(a + c, flip + c, thresholds + c, levels, filters,
                        lv + c);
    }
    for (int64_t c = 0; c < filters; ++c) {
      float* row = out + c * n + j0;
      for (int64_t jj = 0; jj < count; ++jj)
        row[jj] = level_value[level[jj * filters + c]];
    }
  }
};

}  // namespace

void ConvLayer::forward_quant_reference(const Tensor& in, Tensor& out) {
  TINCY_CHECK_MSG(cfg_.binary_weights && cfg_.act_bits < 8,
                  "quant reference path needs binary=1 and abits<8");
  // No exact zero exists in the bipolar code space; padded convolutions
  // would corrupt the arithmetic, so they are rejected here. (FINN's
  // fully binarized nets use valid convolutions / FC layers.)
  TINCY_CHECK_MSG(!cfg_.bipolar || geom_.pad == 0,
                  "bipolar conv cannot zero-pad");
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  // Incoming floats sit on the activation grid; recover the integer codes.
  const int64_t pixels = in.numel();
  uint8_t* codes = arena.alloc<uint8_t>(pixels);
  if (cfg_.bipolar) {
    const quant::BipolarActQuant in_q{cfg_.in_scale};
    for (int64_t i = 0; i < pixels; ++i) codes[i] = in_q.quantize(in[i]);
  } else {
    quant::quantize_activations(in.data(), pixels,
                                {cfg_.act_bits, cfg_.in_scale}, codes);
  }
  // Zero padding is exact on the unsigned grid: real 0.0 is code 0.
  const int bits = cfg_.act_bits;  // 1 for bipolar layers
  const int64_t n = geom_.num_patches();
  uint64_t* planes = arena.alloc<uint64_t>(
      n * bits * gemm::bitplane_words(geom_.patch_size()));
  gemm::im2col_bitplanes(codes, geom_, bits, planes);

  if (!bitserial_cache_)
    bitserial_cache_ = gemm::pack_bitserial(binary_weights(), geom_.kernel);
  const ThresholdTable& table = threshold_table();
  const ThresholdEpilogue epilogue{table.thresholds.data(),
                                   table.flip.data(),
                                   table.level_value.data(),
                                   table.levels,
                                   cfg_.filters,
                                   n,
                                   out.data()};
  // Passed by reference, so the std::function does not allocate.
  gemm::bitserial_gemm(*bitserial_cache_, planes, n, bits, cfg_.bipolar,
                       std::cref(epilogue));
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
