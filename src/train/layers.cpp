#include "train/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gemm/gemm_ref.hpp"
#include "quant/thresholds.hpp"

namespace tincy::train {

TrainConvLayer::TrainConvLayer(const TrainConvConfig& cfg, Shape input_shape,
                               Rng& rng)
    : cfg_(cfg) {
  if (cfg_.binary_weights) cfg_.channel_scale = true;
  if (cfg_.bipolar) {
    TINCY_CHECK_MSG(cfg_.act_bits == 1, "bipolar requires act_bits=1");
    TINCY_CHECK_MSG(cfg_.activation == nn::Activation::kLinear,
                    "bipolar layers use the sign itself as activation");
  }
  TINCY_CHECK(input_shape.rank() == 3);
  geom_.in_channels = input_shape.channels();
  geom_.in_height = input_shape.height();
  geom_.in_width = input_shape.width();
  geom_.kernel = cfg.size;
  geom_.stride = cfg.stride;
  geom_.pad = cfg.pad ? cfg.size / 2 : 0;

  const Shape wshape{cfg.filters, geom_.patch_size()};
  weights_ = Tensor(wshape);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(geom_.patch_size()));
  for (int64_t i = 0; i < weights_.numel(); ++i)
    weights_[i] = rng.normal(0.0f, stddev);
  biases_ = Tensor(Shape{cfg.filters});
  grad_weights_ = Tensor(wshape);
  grad_biases_ = Tensor(Shape{cfg.filters});
  mom_weights_ = Tensor(wshape);
  mom_biases_ = Tensor(Shape{cfg.filters});
  if (cfg_.channel_scale) {
    // α ≈ 1/√fan_in keeps binary accumulators in the activation range.
    scales_ = Tensor(Shape{cfg.filters},
                     1.0f / std::sqrt(static_cast<float>(geom_.patch_size())));
    grad_scales_ = Tensor(Shape{cfg.filters});
    mom_scales_ = Tensor(Shape{cfg.filters});
  }
}

Shape TrainConvLayer::output_shape() const {
  return Shape{cfg_.filters, geom_.out_height(), geom_.out_width()};
}

void TrainConvLayer::set_parameters(const Tensor& weights,
                                    const Tensor& biases) {
  TINCY_CHECK_MSG(weights.shape() == weights_.shape(),
                  weights.shape().to_string() << " vs "
                                              << weights_.shape().to_string());
  TINCY_CHECK(biases.shape() == biases_.shape());
  weights_ = weights;
  biases_ = biases;
}

Tensor TrainConvLayer::effective_weights() const {
  if (!cfg_.binary_weights) return weights_;
  Tensor w(weights_.shape());
  for (int64_t i = 0; i < w.numel(); ++i)
    w[i] = weights_[i] >= 0.0f ? 1.0f : -1.0f;
  return w;
}

Tensor TrainConvLayer::forward(const Tensor& input, bool training) {
  const int64_t n = geom_.num_patches();
  cached_columns_ = gemm::im2col(input, geom_);
  const Tensor w = effective_weights();

  Tensor acc(output_shape());
  gemm::gemm_ref(cfg_.filters, n, geom_.patch_size(), w.data(),
                 cached_columns_.data(), acc.data());
  Tensor pre(acc.shape());
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    const float alpha = cfg_.channel_scale ? scales_[c] : 1.0f;
    for (int64_t j = 0; j < n; ++j)
      pre[c * n + j] = alpha * acc[c * n + j] + biases_[c];
  }
  if (training && cfg_.channel_scale) cached_acc_ = acc;

  Tensor post(pre.shape());
  for (int64_t i = 0; i < pre.numel(); ++i)
    post[i] = nn::apply(cfg_.activation, pre[i]);

  if (training) {
    cached_preact_ = pre;
    cached_postact_ = post;
  }

  if (cfg_.bipolar || cfg_.act_bits < 8) {
    // QAT: quantize-dequantize onto the A-bit grid (STE in backward).
    const quant::CodeGrid g{cfg_.act_bits, cfg_.out_scale, cfg_.bipolar};
    for (int64_t i = 0; i < post.numel(); ++i) post[i] = g.snap(post[i]);
  }
  return post;
}

Tensor TrainConvLayer::backward(const Tensor& input, const Tensor& grad_out) {
  TINCY_CHECK_MSG(cached_preact_.numel() == grad_out.numel(),
                  "backward without matching forward");
  const int64_t n = geom_.num_patches();
  const int64_t patch = geom_.patch_size();

  // STE through the activation quantizer.
  Tensor delta = grad_out;
  if (cfg_.bipolar) {
    // Hard-tanh STE: gradient passes while the pre-activation is in the
    // linear window of the binarizer.
    for (int64_t i = 0; i < delta.numel(); ++i)
      if (std::fabs(cached_preact_[i]) > 1.0f) delta[i] = 0.0f;
  } else if (cfg_.act_bits < 8) {
    // Pass gradient inside the representable range [0, levels·scale].
    const float hi =
        cfg_.out_scale * static_cast<float>((1 << cfg_.act_bits) - 1);
    for (int64_t i = 0; i < delta.numel(); ++i) {
      const float v = cached_postact_[i];
      if (v < 0.0f || v > hi) delta[i] = 0.0f;
    }
  }
  // Through the activation function.
  for (int64_t i = 0; i < delta.numel(); ++i)
    delta[i] *= nn::derivative(cfg_.activation, cached_preact_[i]);

  // Bias gradient (pre = α_c · acc + b_c, so db_c = Σ_j delta) — taken
  // before delta is scaled through α below.
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    const float* drow = delta.data() + c * n;
    float bias_sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) bias_sum += drow[j];
    grad_biases_[c] += bias_sum;
  }

  // Through the per-channel scale: dα_c = Σ_j delta ⊙ acc; d(acc) = α_c·delta.
  if (cfg_.channel_scale) {
    for (int64_t c = 0; c < cfg_.filters; ++c) {
      float* drow = delta.data() + c * n;
      const float* arow = cached_acc_.data() + c * n;
      float galpha = 0.0f;
      for (int64_t j = 0; j < n; ++j) galpha += drow[j] * arow[j];
      grad_scales_[c] += galpha;
      const float alpha = scales_[c];
      for (int64_t j = 0; j < n; ++j) drow[j] *= alpha;
    }
  }

  // Weight gradients: dW += delta · columnsᵀ (STE: onto the float masters).
  const Tensor w = effective_weights();
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    const float* drow = delta.data() + c * n;
    float* gw = grad_weights_.data() + c * patch;
    for (int64_t k = 0; k < patch; ++k) {
      const float* col_row = cached_columns_.data() + k * n;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += drow[j] * col_row[j];
      gw[k] += acc;  // STE: gradient lands on the float master weights
    }
  }

  // Input gradient: columns_grad = Wᵀ · delta, then col2im.
  Tensor col_grad(Shape{patch, n});
  for (int64_t k = 0; k < patch; ++k) {
    float* crow = col_grad.data() + k * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int64_t c = 0; c < cfg_.filters; ++c) {
      const float wv = w[c * patch + k];
      const float* drow = delta.data() + c * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += wv * drow[j];
    }
  }
  Tensor grad_in(input.shape());
  gemm::col2im(col_grad.data(), geom_, grad_in.data());
  return grad_in;
}

std::vector<TrainLayer::Param> TrainConvLayer::params() {
  std::vector<Param> p{
      {&weights_, &grad_weights_, &mom_weights_, cfg_.binary_weights},
      {&biases_, &grad_biases_, &mom_biases_, false},
  };
  if (cfg_.channel_scale)
    p.push_back({&scales_, &grad_scales_, &mom_scales_, false});
  return p;
}

void TrainConvLayer::zero_grad() {
  grad_weights_.fill(0.0f);
  grad_biases_.fill(0.0f);
  if (cfg_.channel_scale) grad_scales_.fill(0.0f);
}

TrainMaxPoolLayer::TrainMaxPoolLayer(int64_t size, int64_t stride,
                                     Shape input_shape)
    : size_(size), stride_(stride), in_shape_(input_shape) {
  const int64_t padding = size - 1;
  out_h_ = (input_shape.height() + padding - size) / stride + 1;
  out_w_ = (input_shape.width() + padding - size) / stride + 1;
}

Shape TrainMaxPoolLayer::output_shape() const {
  return Shape{in_shape_.channels(), out_h_, out_w_};
}

Tensor TrainMaxPoolLayer::forward(const Tensor& input, bool training) {
  const int64_t C = in_shape_.channels(), H = in_shape_.height(),
                W = in_shape_.width();
  const int64_t pad_left = (size_ - 1) / 2;
  Tensor out(output_shape());
  argmax_.assign(static_cast<size_t>(out.numel()), -1);
  for (int64_t c = 0; c < C; ++c) {
    for (int64_t oh = 0; oh < out_h_; ++oh) {
      for (int64_t ow = 0; ow < out_w_; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = -1;
        for (int64_t kh = 0; kh < size_; ++kh) {
          const int64_t ih = oh * stride_ - pad_left + kh;
          if (ih < 0 || ih >= H) continue;
          for (int64_t kw = 0; kw < size_; ++kw) {
            const int64_t iw = ow * stride_ - pad_left + kw;
            if (iw < 0 || iw >= W) continue;
            const int64_t idx = (c * H + ih) * W + iw;
            if (input[idx] > best) {
              best = input[idx];
              best_idx = idx;
            }
          }
        }
        // NaN inputs make every comparison false; pin the argmax to the
        // first valid tap so backward never sees a poisoned index.
        if (best_idx < 0) {
          const int64_t ih = std::clamp<int64_t>(oh * stride_ - pad_left, 0, H - 1);
          const int64_t iw = std::clamp<int64_t>(ow * stride_ - pad_left, 0, W - 1);
          best_idx = (c * H + ih) * W + iw;
          best = input[best_idx];
        }
        const int64_t oidx = (c * out_h_ + oh) * out_w_ + ow;
        out[oidx] = best;
        argmax_[static_cast<size_t>(oidx)] = best_idx;
      }
    }
  }
  (void)training;
  return out;
}

Tensor TrainMaxPoolLayer::backward(const Tensor& input,
                                   const Tensor& grad_out) {
  TINCY_CHECK_MSG(static_cast<int64_t>(argmax_.size()) == grad_out.numel(),
                  "backward without matching forward");
  Tensor grad_in(input.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return grad_in;
}

}  // namespace tincy::train
