#include "quant/thresholds.hpp"

#include <cmath>

namespace tincy::quant {

void quantize_activations(const float* __restrict x, int64_t n,
                          const UniformActQuant& q,
                          uint8_t* __restrict codes) {
  // Fixed-length blocks over restrict pointers: the body vectorises at -O2.
  constexpr int64_t kBlock = 16;
  int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock)
    for (int64_t k = 0; k < kBlock; ++k) codes[i + k] = q.quantize(x[i + k]);
  for (; i < n; ++i) codes[i] = q.quantize(x[i]);
}

bool CodeGrid::exact() const {
  if (bits < 1 || bits > 8) return false;
  const float top = bipolar ? 1.0f : static_cast<float>((1 << bits) - 1);
  return std::isnormal(scale) && scale > 0.0f && std::isfinite(scale * top);
}

void CodeGrid::quantize(const float* x, int64_t n, uint8_t* codes) const {
  if (!bipolar) return quantize_activations(x, n, {bits, scale}, codes);
  const BipolarActQuant q{scale};
  for (int64_t i = 0; i < n; ++i) codes[i] = q.quantize(x[i]);
}

void CodeGrid::dequantize(const uint8_t* codes, int64_t n, float* out) const {
  if (bipolar) {
    const BipolarActQuant q{scale};
    for (int64_t i = 0; i < n; ++i) out[i] = q.dequantize(codes[i]);
  } else {
    const UniformActQuant q{bits, scale};
    for (int64_t i = 0; i < n; ++i) out[i] = q.dequantize(codes[i]);
  }
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
        saturate_threshold(std::ceil(real_threshold - 1e-9)));
  }
  return ts;
}

}  // namespace tincy::quant
