#include "quant/thresholds.hpp"

#include <cmath>

namespace tincy::quant {

uint8_t UniformActQuant::quantize(float x) const {
  // clamp(round(x / scale), 0, levels) without a libm call: inside the
  // grid v < 2^23, so v − trunc(v) is exact and rounding half away from
  // zero is one comparison.
  const float v = x / scale;
  if (!(v > 0.0f)) return 0;
  if (v >= static_cast<float>(levels())) return static_cast<uint8_t>(levels());
  const int whole = static_cast<int>(v);
  return static_cast<uint8_t>(whole + (v - static_cast<float>(whole) >= 0.5f));
}

TensorU8 quantize_activations(const Tensor& t, const UniformActQuant& q) {
  TensorU8 out(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) out[i] = q.quantize(t[i]);
  return out;
}

Tensor dequantize_activations(const TensorU8& t, const UniformActQuant& q) {
  Tensor out(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) out[i] = q.dequantize(t[i]);
  return out;
}

ThresholdChannel fold_to_thresholds(int act_bits, float acc_scale,
                                    float bias, float out_scale) {
  TINCY_CHECK_MSG(act_bits >= 1 && act_bits <= 8, "act_bits " << act_bits);
  TINCY_CHECK_MSG(acc_scale > 0.0f && out_scale > 0.0f,
                  acc_scale << ", " << out_scale);
  ThresholdChannel ts;
  const int levels = (1 << act_bits) - 1;
  ts.thresholds.reserve(static_cast<size_t>(levels));
  for (int k = 1; k <= levels; ++k) {
    // Level k is reached when round((acc_scale*acc + bias)/out_scale) >= k,
    // i.e. acc >= (out_scale*(k − 0.5) − bias) / acc_scale.
    const double real_threshold =
        (static_cast<double>(out_scale) * (k - 0.5) - bias) / acc_scale;
    ts.thresholds.push_back(
        static_cast<int32_t>(std::ceil(real_threshold - 1e-9)));
  }
  return ts;
}

}  // namespace tincy::quant
