#pragma once

/// \file thresholds.hpp
/// FINN-style multi-threshold activation quantization.
///
/// In the FINN architecture the paper's accelerator derives from, a
/// quantized activation function (and any preceding batch-norm and bias)
/// collapses into a set of integer thresholds applied to the raw dot
/// product accumulator: the A-bit output level is simply the number of
/// thresholds the accumulator reaches. This file provides the uniform
/// activation quantizer used on feature maps (the paper's 3-bit data) and
/// the threshold form of it over integer accumulators.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/tensor.hpp"

namespace tincy::quant {

/// Uniform unsigned activation quantizer: code = clamp(round(x / scale),
/// 0, 2^bits − 1). Models the paper's 3-bit feature-map data (A3); ReLU is
/// implicit in the clamping at 0.
struct UniformActQuant {
  int bits = 3;
  float scale = 1.0f;

  int levels() const { return (1 << bits) - 1; }

  /// clamp(round(x / scale), 0, levels), rounding half up, without a
  /// branch or a libm call: NaN, −0 and negatives clamp to 0 and +inf to
  /// the top level; inside the grid v < 2^23, so v − trunc(v) is exact.
  uint8_t quantize(float x) const {
    const float top = static_cast<float>(levels());
    float v = x / scale;
    v = v > 0.0f ? v : 0.0f;
    v = v < top ? v : top;
    const int whole = static_cast<int>(v);
    return static_cast<uint8_t>(
        whole + (v - static_cast<float>(whole) >= 0.5f ? 1 : 0));
  }
  float dequantize(uint8_t code) const { return scale * static_cast<float>(code); }
};

/// codes[i] = q.quantize(x[i]) for i < n, in one vectorisable pass.
void quantize_activations(const float* x, int64_t n, const UniformActQuant& q,
                          uint8_t* codes);

/// Per-output-channel threshold unit (the "T" of the MVTU): the A-bit
/// output level is the number of satisfied comparisons. With a positive
/// folded batch-norm slope the thresholds ascend and level(acc) =
/// |{ k : acc >= thresholds[k] }|; `ascending` is false when the slope is
/// negative and the comparisons flip to acc <= thresholds[k]. Shared by
/// the CPU golden model and the fabric.
struct ThresholdChannel {
  std::vector<int32_t> thresholds;  ///< 2^A − 1 entries (1 for bipolar)
  bool ascending = true;

  /// The quantized output level of a raw accumulator. At most 2^A − 1
  /// comparators, evaluated in parallel by the fabric; a scan is exact.
  uint8_t apply(int32_t acc) const {
    int level = 0;
    if (ascending)
      for (const int32_t t : thresholds) level += acc >= t;
    else
      for (const int32_t t : thresholds) level += acc <= t;
    return static_cast<uint8_t>(level);
  }
};

/// An already rounded real threshold as int32, saturated to the int32
/// range: a near-zero folded slope can push it far past either end, where
/// a plain cast is undefined. NaN (from NaN statistics) maps to the top.
inline int32_t saturate_threshold(double t) {
  constexpr double lo = std::numeric_limits<int32_t>::min();
  constexpr double hi = std::numeric_limits<int32_t>::max();
  if (!(t < hi)) return std::numeric_limits<int32_t>::max();
  if (t <= lo) return std::numeric_limits<int32_t>::min();
  return static_cast<int32_t>(t);
}

/// Builds the ascending ThresholdChannel equivalent to `scale_out`-uniform
/// quantization of (acc_scale * acc + bias) after ReLU: level k is reached
/// when acc_scale*acc + bias >= scale_out*(k − 0.5), i.e. the standard
/// FINN fold of bias/batch-norm + activation into thresholds.
ThresholdChannel fold_to_thresholds(int act_bits, float acc_scale,
                                    float bias, float out_scale);

/// Bipolar (±1) activation quantizer — the fully binarized W1A1 encoding
/// of Hubara et al. used by the MLP-4 / CNV-6 workloads: bit 1 encodes
/// +scale, bit 0 encodes −scale. With ±1 weights the dot product is a
/// single popcount (gemm/bitserial.hpp).
struct BipolarActQuant {
  float scale = 1.0f;

  uint8_t quantize(float x) const { return x >= 0.0f ? 1 : 0; }
  float dequantize(uint8_t code) const { return code ? scale : -scale; }
};

/// Grid of A-bit activation codes, one per byte: real = scale · code on
/// the unsigned grid (UniformActQuant), ±scale for bipolar codes
/// (BipolarActQuant, bits = 1, bit 1 is +scale).
struct CodeGrid {
  int bits = 1;
  float scale = 1.0f;
  bool bipolar = false;

  bool operator==(const CodeGrid&) const = default;

  /// Whether codes may stand in for their real values: the scale is
  /// positive and normal and the top level finite, so the codes order like
  /// the values (a max pool may compare codes) and dequantising then
  /// quantising on the same grid gives every code back.
  bool exact() const;

  uint8_t quantize(float x) const {
    return bipolar ? BipolarActQuant{scale}.quantize(x)
                   : UniformActQuant{bits, scale}.quantize(x);
  }
  float dequantize(uint8_t code) const {
    return bipolar ? BipolarActQuant{scale}.dequantize(code)
                   : UniformActQuant{bits, scale}.dequantize(code);
  }
  /// The grid value nearest to x (quantize, then dequantize).
  float snap(float x) const { return dequantize(quantize(x)); }

  /// Bulk forms over n elements.
  void quantize(const float* x, int64_t n, uint8_t* codes) const;
  void dequantize(const uint8_t* codes, int64_t n, float* out) const;
};

}  // namespace tincy::quant
