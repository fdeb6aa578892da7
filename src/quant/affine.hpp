#pragma once

/// \file affine.hpp
/// Affine (scale + zero-point) quantization in the gemmlowp style used by
/// the paper's 8-bit first/last-layer CPU path: real = scale * (q - zero).

#include <cstdint>

#include "core/tensor.hpp"

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

/// Quantizes a whole tensor to uint8 codes.
TensorU8 quantize(const Tensor& t, const AffineParams& params);

/// codes[i] = params.quantize(x[i]) for i < n, in one vectorisable pass.
void quantize(const float* x, int64_t n, const AffineParams& params,
              uint8_t* codes);

/// Dequantizes uint8 codes back to floats.
Tensor dequantize(const TensorU8& t, const AffineParams& params);

/// Computes the gemmlowp-style integer output pipeline constants for
/// requantizing an int32 accumulator of (lhs-zl)*(rhs-zr) products into a
/// uint8 output tensor: q_out = zo + sat(round(acc * M)) with the real
/// multiplier M = (sl*sr/so) expressed as a Q0.31 multiplier and a right
/// shift. M must be in (0, 1) which holds for all practical layer scales.
struct Requantizer {
  int32_t multiplier = 0;  ///< Q0.31 fixed-point multiplier in [2^30, 2^31).
  int right_shift = 0;     ///< Post-multiply rounding right shift.
  int32_t output_zero_point = 0;

  /// Maps one accumulator value to a uint8 output code.
  uint8_t apply(int32_t acc) const;
};

/// Builds a requantizer for M = lhs_scale*rhs_scale/out_scale (must be < 1).
Requantizer make_requantizer(float lhs_scale, float rhs_scale,
                             const AffineParams& out);

}  // namespace tincy::quant
