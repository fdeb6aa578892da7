#pragma once

// Scalar oracles of the W1A3 frame's CPU stages: the plain per-element
// loops these stages ran before they were rewritten as single-pass
// kernels, and the NMS before its per-class buckets. The differential
// tests (test_frame_glue, test_detect) pin each kernel to its oracle bit
// for bit, and bench/frame_glue times the two against each other.
// Nothing outside tests/ and bench/ includes this.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "code_layer_oracle.hpp"
#include "lowp_oracle.hpp"
#include "core/tensor.hpp"
#include "detect/box.hpp"
#include "gemm/bitserial.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
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

/// Greedy per-class NMS checking each candidate against every kept box
/// (skipping other classes one by one), after the same stable sort.
inline std::vector<detect::Detection> nms(
    std::vector<detect::Detection> detections, float iou_threshold) {
  std::stable_sort(detections.begin(), detections.end(),
                   [](const detect::Detection& a, const detect::Detection& b) {
                     const float sa = a.score(), sb = b.score();
                     return !std::isnan(sa) && (std::isnan(sb) || sa > sb);
                   });
  std::vector<detect::Detection> kept;
  for (const detect::Detection& d : detections) {
    bool suppressed = false;
    for (const detect::Detection& k : kept) {
      if (k.class_id == d.class_id &&
          detect::iou(k.box, d.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
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

/// Packed bit-plane columns of an HWC code map, one bit at a time: bit
/// t·C + c of plane b of column (oh, ow) is bit b of channel c at kernel
/// tap t = kh·K + kw, zero for padding taps (gemm::pixel_planes followed
/// by gemm::patch_columns over the whole map).
inline void im2col_bitplanes(const uint8_t* hwc, const gemm::ConvGeometry& g,
                             int bits, uint64_t* planes) {
  const int64_t words = gemm::bitplane_words(g.patch_size());
  const int64_t C = g.in_channels;
  for (int64_t oh = 0; oh < g.out_height(); ++oh)
    for (int64_t ow = 0; ow < g.out_width(); ++ow) {
      uint64_t* col = planes + (oh * g.out_width() + ow) * bits * words;
      std::fill(col, col + bits * words, uint64_t{0});
      for (int64_t kh = 0; kh < g.kernel; ++kh)
        for (int64_t kw = 0; kw < g.kernel; ++kw) {
          const int64_t ih = oh * g.stride - g.pad + kh;
          const int64_t iw = ow * g.stride - g.pad + kw;
          if (ih < 0 || ih >= g.in_height || iw < 0 || iw >= g.in_width)
            continue;
          for (int64_t c = 0; c < C; ++c) {
            const uint8_t code = hwc[(ih * g.in_width + iw) * C + c];
            const int64_t bit = (kh * g.kernel + kw) * C + c;
            for (int b = 0; b < bits; ++b)
              if ((code >> b) & 1)
                col[b * words + bit / 64] |= uint64_t{1} << (bit % 64);
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

/// The 8-bit conv's panel im2col before its interior fast path: every
/// element walks (oh, ow) with a bounds check.
inline void im2col_panel_u8(const uint8_t* image, const gemm::ConvGeometry& g,
                            int64_t col0, int64_t width, uint8_t pad_value,
                            uint8_t* panel, int32_t* col_sums) {
  constexpr int64_t kNr = gemm::kNr;
  const int64_t out_w = g.out_width();
  for (int64_t j = 0; j < kNr; ++j) col_sums[j] = 0;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = panel + row * kNr;
        int64_t ow = col0 % out_w;
        int64_t ih = (col0 / out_w) * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        for (int64_t j = 0; j < width; ++j) {
          const uint8_t v = (ih < 0 || ih >= g.in_height || iw < 0 ||
                             iw >= g.in_width)
                                ? pad_value
                                : plane[ih * g.in_width + iw];
          out_row[j] = v;
          col_sums[j] += v;
          iw += g.stride;
          if (++ow == out_w) {
            ow = 0;
            iw = kw - g.pad;
            ih += g.stride;
          }
        }
        for (int64_t j = width; j < kNr; ++j) {
          out_row[j] = pad_value;
          col_sums[j] += pad_value;
        }
      }
    }
  }
}

/// The 8-bit conv's raw output before its epilogue: dense im2col of the
/// frame's codes (the zero point pads), the scalar gemm_lowp_i32 on the
/// raw weight codes `wq` (filters × patch), then real_scale · acc + 0 per
/// element.
inline void lowp_conv_raw(const uint8_t* qimage, const gemm::ConvGeometry& g,
                          const quant::AffineParams& in_params,
                          const uint8_t* wq, int64_t filters,
                          const quant::AffineParams& w_params, float* out) {
  std::vector<int32_t> acc(static_cast<size_t>(filters * g.num_patches()));
  lowp_conv_naive(qimage, g, wq, filters, w_params.zero_point,
                  in_params.zero_point, acc.data());
  const float real_scale = in_params.scale * w_params.scale;
  for (size_t i = 0; i < acc.size(); ++i)
    out[i] = real_scale * static_cast<float>(acc[i]) + 0.0f;
}

/// The kLowp ConvLayer before its driver grew an epilogue: serial
/// calibration and quantisation of the frame, the raw conv, then the
/// separate post-pass. The weights are quantised as the layer does it.
inline void lowp_conv(const nn::ConvLayer& layer, const Tensor& in,
                      Tensor& out) {
  const auto [lo, hi] = min_max(in);
  const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);
  TensorU8 qimage(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i)
    qimage[i] = in_params.quantize(in[i]);
  const auto [wlo, whi] = min_max(layer.weights());
  const quant::AffineParams w_params = quant::choose_affine_params(wlo, whi);
  const TensorU8 wq = quant::quantize(layer.weights(), w_params);
  lowp_conv_raw(qimage.data(), layer.geometry(), in_params, wq.data(),
                layer.config().filters, w_params, out.data());
  apply_post(layer, out);
}

/// The golden bit-serial conv with a fresh code tensor and plane buffer
/// per call, the bit-by-bit im2col above, the tile kernel on one thread
/// 16 columns at a time and a per-element threshold scan that tests the
/// direction and the bipolar grid per element. `packed` is
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
  const int64_t col_words = bits * gemm::bitplane_words(geom_.patch_size());
  // The bit-plane im2col reads pixel-major (HWC) codes.
  TensorU8 hwc(in.shape());
  to_hwc(codes.data(), geom_.in_channels, geom_.in_height * geom_.in_width,
         hwc.data());
  const auto planes = std::make_unique_for_overwrite<uint64_t[]>(
      static_cast<size_t>(n * col_words));
  im2col_bitplanes(hwc.data(), geom_, bits, planes.get());

  const auto& thresholds = layer.quant_thresholds();
  const int64_t filters = cfg_.filters;
  const quant::BipolarActQuant out_bq{cfg_.out_scale};
  std::vector<int64_t> row_bias(
      static_cast<size_t>(packed.groups() * gemm::kBitSerialGroupRows));
  const gemm::BitSerialTileArgs args =
      gemm::tile_args(packed, bits, cfg_.bipolar, row_bias.data());
  const gemm::BitSerialFn fn = gemm::bitserial_kernel(
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto));
  constexpr int64_t kBlock = 16;
  std::vector<int32_t> acc(static_cast<size_t>(kBlock * filters));
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t count = std::min(kBlock, n - j0);
    fn(args, planes.get() + j0 * col_words, count, acc.data());
    for (int64_t c = 0; c < filters; ++c) {
      const auto& th = thresholds[static_cast<size_t>(c)];
      float* row = out.data() + c * n + j0;
      for (int64_t jj = 0; jj < count; ++jj) {
        const uint8_t level =
            th.apply(acc[static_cast<size_t>(jj * filters + c)]);
        row[jj] = cfg_.bipolar ? out_bq.dequantize(level)
                               : cfg_.out_scale * static_cast<float>(level);
      }
    }
  }
}

}  // namespace tincy::oracle
