#include "quant/affine.hpp"

#include <algorithm>
#include <cmath>

#include "core/fixed_point.hpp"

namespace tincy::quant {

AffineParams choose_affine_params(float rmin, float rmax) {
  // Widen the range to include zero so that 0.0 has an exact code.
  rmin = std::min(rmin, 0.0f);
  rmax = std::max(rmax, 0.0f);
  if (rmin == rmax) return {1.0f, 0};

  AffineParams p;
  p.scale = (rmax - rmin) / 255.0f;
  // zero_point is the code whose dequantized value is exactly 0.
  const float zp = -rmin / p.scale;
  p.zero_point = static_cast<int32_t>(std::lround(std::clamp(zp, 0.0f, 255.0f)));
  return p;
}

std::pair<float, float> min_max(const Tensor& t) {
  if (t.empty()) return {0.0f, 0.0f};
  const float* x = t.data();
  const int64_t n = t.numel();
  // Lane-parallel form of lo = std::min(lo, x[i]) from lo = x[0]: every
  // lane starts at x[0], so a NaN there poisons the result as in the scan
  // and later NaNs are skipped.
  constexpr int64_t kLanes = 16;
  float lo[kLanes], hi[kLanes];
  std::fill(lo, lo + kLanes, x[0]);
  std::fill(hi, hi + kLanes, x[0]);
  int64_t i = 1;
  for (; i + kLanes <= n; i += kLanes)
    for (int64_t k = 0; k < kLanes; ++k) {
      const float v = x[i + k];  // std::min(lo, v) and std::max(hi, v)
      lo[k] = v < lo[k] ? v : lo[k];
      hi[k] = hi[k] < v ? v : hi[k];
    }
  float l = x[0], h = x[0];
  for (int64_t k = 0; k < kLanes; ++k) {
    l = std::min(l, lo[k]);
    h = std::max(h, hi[k]);
  }
  for (; i < n; ++i) {
    l = std::min(l, x[i]);
    h = std::max(h, x[i]);
  }
  // The scan keeps the first of equal values, which only shows for ±0:
  // a zero extreme is the first element equal to zero.
  if (l == 0.0f) l = *std::find(x, x + n, 0.0f);
  if (h == 0.0f) h = *std::find(x, x + n, 0.0f);
  return {l, h};
}

TensorU8 quantize(const Tensor& t, const AffineParams& params) {
  TensorU8 q(t.shape());
  quantize(t.data(), t.numel(), params, q.data());
  return q;
}

void quantize(const float* __restrict x, int64_t n, const AffineParams& params,
              uint8_t* __restrict codes) {
  // Fixed-length blocks over restrict pointers: the body vectorises at -O2.
  constexpr int64_t kBlock = 16;
  int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock)
    for (int64_t k = 0; k < kBlock; ++k)
      codes[i + k] = params.quantize(x[i + k]);
  for (; i < n; ++i) codes[i] = params.quantize(x[i]);
}

Tensor dequantize(const TensorU8& t, const AffineParams& params) {
  Tensor r(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) r[i] = params.dequantize(t[i]);
  return r;
}

uint8_t Requantizer::apply(int32_t acc) const {
  const int32_t scaled =
      multiply_by_quantized_multiplier(acc, multiplier, right_shift);
  return saturate_cast<uint8_t>(static_cast<int64_t>(scaled) +
                                output_zero_point);
}

Requantizer make_requantizer(float lhs_scale, float rhs_scale,
                             const AffineParams& out) {
  const double m = static_cast<double>(lhs_scale) * rhs_scale / out.scale;
  TINCY_CHECK_MSG(m > 0.0 && m < 1.0, "real multiplier " << m);
  // Normalize m into [0.5, 1) * 2^-shift, then express as Q0.31.
  int shift = 0;
  double frac = m;
  while (frac < 0.5) {
    frac *= 2.0;
    ++shift;
  }
  Requantizer r;
  const auto q31 = static_cast<int64_t>(std::lround(frac * (1ll << 31)));
  // Rounding can push frac to exactly 2^31; fold back into the shift.
  if (q31 == (1ll << 31)) {
    r.multiplier = 1 << 30;
    r.right_shift = shift - 1;
  } else {
    r.multiplier = static_cast<int32_t>(q31);
    r.right_shift = shift;
  }
  r.output_zero_point = out.zero_point;
  return r;
}

}  // namespace tincy::quant
