#include "nn/connected_layer.hpp"

#include <cmath>

#include "gemm/scratch.hpp"
#include "nn/weights_io.hpp"
#include "quant/thresholds.hpp"

namespace tincy::nn {

ConnectedLayer::ConnectedLayer(const ConnectedConfig& cfg, Shape input_shape)
    : cfg_(cfg), inputs_(input_shape.numel()) {
  TINCY_CHECK(cfg.outputs > 0 && inputs_ > 0);
  if (cfg.bipolar) {
    TINCY_CHECK_MSG(cfg.act_bits == 1, "bipolar requires abits=1");
    TINCY_CHECK_MSG(cfg.activation == Activation::kLinear,
                    "bipolar layers use the sign itself as activation");
  }
  weights_ = Tensor(Shape{cfg.outputs, inputs_});
  biases_ = Tensor(Shape{cfg.outputs});
}

void ConnectedLayer::invalidate_cached_quantization() {
  std::lock_guard lock(cache_mutex_);
  lowp_params_.reset();
  packed_lowp_.reset();
}

void ConnectedLayer::forward_lowp(const Tensor& in, Tensor& out) const {
  {
    std::lock_guard lock(cache_mutex_);
    if (!packed_lowp_) {
      const auto [wlo, whi] = quant::min_max(weights_);
      lowp_params_ = quant::choose_affine_params(wlo, whi);
      const TensorU8 codes = quant::quantize(weights_, *lowp_params_);
      packed_lowp_ = gemm::pack_lhs(codes.data(), cfg_.outputs, inputs_,
                                    lowp_params_->zero_point);
    }
  }
  // Per-frame input calibration, as in the conv lowp path.
  const auto [lo, hi] = quant::min_max(in);
  const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  uint8_t* x = arena.alloc<uint8_t>(inputs_);
  for (int64_t i = 0; i < inputs_; ++i) x[i] = in_params.quantize(in[i]);
  int32_t* acc = arena.alloc<int32_t>(cfg_.outputs);
  gemm::gemm_lowp_packed(*packed_lowp_, x, in_params.zero_point, 1, acc);
  const float real_scale = in_params.scale * lowp_params_->scale;
  for (int64_t o = 0; o < cfg_.outputs; ++o)
    out[o] = apply(cfg_.activation,
                   real_scale * static_cast<float>(acc[o]) + biases_[o]);
}

void ConnectedLayer::forward(const Tensor& in, Tensor& out) const {
  TINCY_CHECK(in.numel() == inputs_);
  TINCY_CHECK(out.numel() == cfg_.outputs);
  if (cfg_.lowp && !cfg_.binary_weights) {
    forward_lowp(in, out);
  } else {
    for (int64_t o = 0; o < cfg_.outputs; ++o) {
      const float* w = weights_.data() + o * inputs_;
      float acc = biases_[o];
      if (cfg_.binary_weights) {
        for (int64_t i = 0; i < inputs_; ++i)
          acc += (w[i] >= 0.0f ? in[i] : -in[i]);
      } else {
        for (int64_t i = 0; i < inputs_; ++i) acc += w[i] * in[i];
      }
      out[o] = apply(cfg_.activation, acc);
    }
  }
  if (cfg_.bipolar || cfg_.act_bits < 8) {
    const quant::CodeGrid g{cfg_.act_bits, cfg_.out_scale, cfg_.bipolar};
    for (int64_t i = 0; i < out.numel(); ++i) out[i] = g.snap(out[i]);
  }
}

void ConnectedLayer::load_weights(WeightReader& r) {
  r.read(biases_);
  r.read(weights_);
  invalidate_cached_quantization();
}

void ConnectedLayer::save_weights(WeightWriter& w) const {
  w.write(biases_);
  w.write(weights_);
}

OpsCount ConnectedLayer::ops() const {
  return {2 * inputs_ * cfg_.outputs, precision()};
}

Precision ConnectedLayer::precision() const {
  if (cfg_.binary_weights && cfg_.act_bits < 8) return {1, cfg_.act_bits};
  if (cfg_.lowp) return kW8A8;
  return kFloat;
}

}  // namespace tincy::nn
