#include "quant/thresholds.hpp"

#include <cmath>

namespace tincy::quant {

TensorU8 quantize_activations(const Tensor& t, const UniformActQuant& q) {
  TensorU8 out(t.shape());
  quantize_activations(t.data(), t.numel(), q, out.data());
  return out;
}

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
        saturate_threshold(std::ceil(real_threshold - 1e-9)));
  }
  return ts;
}

}  // namespace tincy::quant
