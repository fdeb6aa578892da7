#pragma once

// Scalar oracles of the W1A3 frame's per-element CPU stages: the plain
// per-element loops these stages ran before they were rewritten as
// single-pass kernels. The differential tests (test_frame_glue) pin each
// kernel to its oracle bit for bit, and bench/frame_glue times the two
// against each other. Nothing outside tests/ and bench/ includes this.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "core/tensor.hpp"
#include "gemm/bitserial.hpp"
#include "nn/activation.hpp"
#include "nn/conv_layer.hpp"
#include "quant/affine.hpp"
#include "quant/thresholds.hpp"

namespace tincy::oracle {

/// Bilinear resize with bounds-checked element access.
inline Tensor resize_bilinear(const Tensor& image, int64_t out_h,
                              int64_t out_w) {
  TINCY_CHECK(image.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  TINCY_CHECK(out_h > 0 && out_w > 0);
  Tensor out(Shape{C, out_h, out_w});
  const float sy = out_h > 1 ? static_cast<float>(H - 1) / static_cast<float>(out_h - 1)
                             : 0.0f;
  const float sx = out_w > 1 ? static_cast<float>(W - 1) / static_cast<float>(out_w - 1)
                             : 0.0f;
  for (int64_t c = 0; c < C; ++c) {
    for (int64_t oy = 0; oy < out_h; ++oy) {
      const float fy = static_cast<float>(oy) * sy;
      const int64_t y0 = static_cast<int64_t>(fy);
      const int64_t y1 = std::min(y0 + 1, H - 1);
      const float wy = fy - static_cast<float>(y0);
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const float fx = static_cast<float>(ox) * sx;
        const int64_t x0 = static_cast<int64_t>(fx);
        const int64_t x1 = std::min(x0 + 1, W - 1);
        const float wx = fx - static_cast<float>(x0);
        const float v00 = image.at(c, y0, x0), v01 = image.at(c, y0, x1);
        const float v10 = image.at(c, y1, x0), v11 = image.at(c, y1, x1);
        out.at(c, oy, ox) = (1 - wy) * ((1 - wx) * v00 + wx * v01) +
                            wy * ((1 - wx) * v10 + wx * v11);
      }
    }
  }
  return out;
}

/// Letterbox through an intermediate resized tensor.
inline Tensor letterbox(const Tensor& image, int64_t size) {
  TINCY_CHECK(image.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  int64_t new_w, new_h;
  if (W >= H) {
    new_w = size;
    new_h = std::max<int64_t>(1, H * size / W);
  } else {
    new_h = size;
    new_w = std::max<int64_t>(1, W * size / H);
  }
  const Tensor resized = resize_bilinear(image, new_h, new_w);
  Tensor boxed(Shape{C, size, size}, 0.5f);
  const int64_t off_y = (size - new_h) / 2, off_x = (size - new_w) / 2;
  for (int64_t c = 0; c < C; ++c)
    for (int64_t y = 0; y < new_h; ++y)
      for (int64_t x = 0; x < new_w; ++x)
        boxed.at(c, y + off_y, x + off_x) = resized.at(c, y, x);
  return boxed;
}

/// Darknet max pool (implicit total padding size − 1) with a bounds test
/// per tap; `out` must already have the pool's output shape.
inline void maxpool(const Tensor& in, int64_t size, int64_t stride,
                    Tensor& out) {
  const int64_t C = in.shape().channels(), H = in.shape().height(),
                W = in.shape().width();
  const int64_t out_h_ = out.shape().height(), out_w_ = out.shape().width();
  const int64_t pad_left = (size - 1) / 2;  // 0 for size 2: pad right/bottom
  for (int64_t c = 0; c < C; ++c) {
    const float* plane = in.data() + c * H * W;
    float* out_plane = out.data() + c * out_h_ * out_w_;
    for (int64_t oh = 0; oh < out_h_; ++oh) {
      for (int64_t ow = 0; ow < out_w_; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        for (int64_t kh = 0; kh < size; ++kh) {
          const int64_t ih = oh * stride - pad_left + kh;
          if (ih < 0 || ih >= H) continue;
          for (int64_t kw = 0; kw < size; ++kw) {
            const int64_t iw = ow * stride - pad_left + kw;
            if (iw < 0 || iw >= W) continue;
            best = std::max(best, plane[ih * W + iw]);
          }
        }
        out_plane[oh * out_w_ + ow] = best;
      }
    }
  }
}

/// UniformActQuant::quantize with early returns.
inline uint8_t uniform_quantize(const quant::UniformActQuant& q, float x) {
  const float v = x / q.scale;
  if (!(v > 0.0f)) return 0;
  if (v >= static_cast<float>(q.levels())) return static_cast<uint8_t>(q.levels());
  const int whole = static_cast<int>(v);
  return static_cast<uint8_t>(whole + (v - static_cast<float>(whole) >= 0.5f));
}

/// AffineParams::quantize through libm rounding. Undefined for NaN.
inline uint8_t affine_quantize(const quant::AffineParams& p, float real) {
  const float q = std::round(real / p.scale) + static_cast<float>(p.zero_point);
  return static_cast<uint8_t>(std::clamp(q, 0.0f, 255.0f));
}

/// Serial min/max scan.
inline std::pair<float, float> min_max(const Tensor& t) {
  if (t.empty()) return {0.0f, 0.0f};
  float lo = t[0], hi = t[0];
  for (int64_t i = 1; i < t.numel(); ++i) {
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  return {lo, hi};
}

/// ConvLayer's bias/BN/activation/grid-snap post-pass, switching on the
/// activation and the grid per element.
inline void apply_post(const nn::ConvLayer& layer, Tensor& out) {
  const nn::ConvConfig& cfg_ = layer.config();
  const int64_t n = layer.geometry().num_patches();
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    float scale = 1.0f, shift = 0.0f;
    if (cfg_.batch_normalize) {
      const float inv_sigma =
          1.0f / std::sqrt(layer.bn_var()[c] + nn::kBatchNormEps);
      scale = layer.bn_scales()[c] * inv_sigma;
      shift = -layer.bn_mean()[c] * scale;
    }
    const float bias = layer.biases()[c];
    float* row = out.data() + c * n;
    for (int64_t j = 0; j < n; ++j)
      row[j] = nn::apply(cfg_.activation, row[j] * scale + shift + bias);
  }
  if (cfg_.bipolar) {
    const quant::BipolarActQuant q{cfg_.out_scale};
    for (int64_t i = 0; i < out.numel(); ++i)
      out[i] = q.dequantize(q.quantize(out[i]));
  } else if (cfg_.act_bits < 8) {
    const quant::UniformActQuant q{cfg_.act_bits, cfg_.out_scale};
    for (int64_t i = 0; i < out.numel(); ++i)
      out[i] = q.dequantize(uniform_quantize(q, out[i]));
  }
}

/// The golden bit-serial conv with a fresh code tensor and plane buffer
/// per call and a per-element threshold scan that tests the direction and
/// the bipolar grid per element. `packed` is
/// gemm::pack_bitserial(layer.binary_weights(), kernel).
inline void golden_conv(const nn::ConvLayer& layer,
                        const gemm::BitSerialWeights& packed, const Tensor& in,
                        Tensor& out) {
  const nn::ConvConfig& cfg_ = layer.config();
  const gemm::ConvGeometry& geom_ = layer.geometry();
  TensorU8 codes(in.shape());
  if (cfg_.bipolar) {
    const quant::BipolarActQuant in_q{cfg_.in_scale};
    for (int64_t i = 0; i < in.numel(); ++i) codes[i] = in_q.quantize(in[i]);
    TINCY_CHECK_MSG(geom_.pad == 0, "bipolar conv cannot zero-pad");
  } else {
    const quant::UniformActQuant in_q{cfg_.act_bits, cfg_.in_scale};
    for (int64_t i = 0; i < in.numel(); ++i)
      codes[i] = uniform_quantize(in_q, in[i]);
  }
  const int bits = cfg_.act_bits;
  const int64_t n = geom_.num_patches();
  const auto planes = std::make_unique_for_overwrite<uint64_t[]>(
      static_cast<size_t>(n * bits * gemm::bitplane_words(geom_.patch_size())));
  gemm::im2col_bitplanes(codes.data(), geom_, bits, planes.get());

  const auto& thresholds = layer.quant_thresholds();
  const int64_t filters = cfg_.filters;
  const quant::BipolarActQuant out_bq{cfg_.out_scale};
  gemm::bitserial_gemm(
      packed, planes.get(), n, bits, cfg_.bipolar,
      [&](int64_t j0, int64_t count, const int32_t* acc) {
        for (int64_t c = 0; c < filters; ++c) {
          const auto& th = thresholds[static_cast<size_t>(c)];
          float* row = out.data() + c * n + j0;
          for (int64_t jj = 0; jj < count; ++jj) {
            const uint8_t level = th.apply(acc[jj * filters + c]);
            row[jj] = cfg_.bipolar ? out_bq.dequantize(level)
                                   : cfg_.out_scale * static_cast<float>(level);
          }
        }
      });
}

}  // namespace tincy::oracle
