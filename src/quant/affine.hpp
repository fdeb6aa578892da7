#pragma once

/// \file affine.hpp
/// Affine (scale + zero-point) quantization in the gemmlowp style used by
/// the paper's 8-bit first/last-layer CPU path: real = scale * (q - zero).

#include <cstdint>

#include "core/tensor.hpp"

namespace tincy::core {
class ThreadPool;
}  // namespace tincy::core

namespace tincy::quant {

/// Parameters of an affine uint8 quantization: real = scale * (q - zero_point).
struct AffineParams {
  float scale = 1.0f;
  int32_t zero_point = 0;

  /// Quantizes one real value: clamp(round(real / scale) + zero_point, 0,
  /// 255), rounding half away from zero, without a branch or a libm call.
  /// Clamping the quotient to [−zero_point − 1, 256 − zero_point] first
  /// changes no code and keeps the truncation exact; NaN maps to code 0.
  uint8_t quantize(float real) const {
    const float lo = static_cast<float>(-1 - zero_point);
    const float hi = static_cast<float>(256 - zero_point);
    float q = real / scale;
    q = q > lo ? q : lo;
    q = q < hi ? q : hi;
    const int32_t whole = static_cast<int32_t>(q);
    const float frac = q - static_cast<float>(whole);
    int32_t code = whole + (frac >= 0.5f) - (frac <= -0.5f) + zero_point;
    code = code > 0 ? code : 0;
    code = code < 255 ? code : 255;
    return static_cast<uint8_t>(code);
  }

  /// Reconstructs the real value of a quantized code.
  float dequantize(uint8_t q) const { return scale * (static_cast<int32_t>(q) - zero_point); }

  bool operator==(const AffineParams&) const = default;
};

/// Chooses quantization parameters covering [rmin, rmax] such that 0.0 is
/// exactly representable (required so zero padding stays exact), following
/// the gemmlowp recipe. The range is widened to include 0 if necessary.
AffineParams choose_affine_params(float rmin, float rmax);

/// Observed min/max of a tensor (for calibration), exactly as a serial
/// std::min/std::max scan from t[0] gives them. Empty tensors yield {0,0}.
std::pair<float, float> min_max(const Tensor& t);
std::pair<float, float> min_max(const float* x, int64_t n);

/// min_max over x[0..n), sharded over `pool` when n is large (small maps
/// stay on the calling thread); the same pair, bit for bit, as the serial
/// scan.
std::pair<float, float> min_max(const float* x, int64_t n,
                                core::ThreadPool& pool);

/// Quantizes a whole tensor to uint8 codes.
TensorU8 quantize(const Tensor& t, const AffineParams& params);

/// codes[i] = params.quantize(x[i]) for i < n, in one vectorisable pass.
void quantize(const float* x, int64_t n, const AffineParams& params,
              uint8_t* codes);
/// The same codes, sharded over `pool` when n is large.
void quantize(const float* x, int64_t n, const AffineParams& params,
              uint8_t* codes, core::ThreadPool& pool);

/// Dequantizes uint8 codes back to floats.
Tensor dequantize(const TensorU8& t, const AffineParams& params);

}  // namespace tincy::quant
