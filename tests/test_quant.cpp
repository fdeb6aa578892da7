#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/rng.hpp"
#include "quant/affine.hpp"
#include "quant/binary.hpp"
#include "quant/ternary.hpp"
#include "quant/thresholds.hpp"

namespace tincy::quant {
namespace {

TEST(Affine, ZeroIsExactlyRepresentable) {
  for (const auto& [lo, hi] : {std::pair{-3.0f, 5.0f}, {0.5f, 2.0f},
                              {-4.0f, -1.0f}, {-1e-3f, 1e3f}}) {
    const AffineParams p = choose_affine_params(lo, hi);
    EXPECT_FLOAT_EQ(p.dequantize(static_cast<uint8_t>(p.zero_point)), 0.0f)
        << lo << ".." << hi;
  }
}

TEST(Affine, RoundTripWithinHalfStep) {
  Rng rng(1);
  const AffineParams p = choose_affine_params(-2.0f, 6.0f);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 6.0f);
    const float back = p.dequantize(p.quantize(x));
    EXPECT_NEAR(back, x, p.scale / 2 + 1e-6f);
  }
}

TEST(Affine, QuantizeClampsOutOfRange) {
  const AffineParams p = choose_affine_params(0.0f, 1.0f);
  EXPECT_EQ(p.quantize(-100.0f), 0);
  EXPECT_EQ(p.quantize(100.0f), 255);
}

TEST(Affine, DegenerateRange) {
  const AffineParams p = choose_affine_params(0.0f, 0.0f);
  EXPECT_EQ(p.quantize(0.0f), 0);
  EXPECT_FLOAT_EQ(p.dequantize(0), 0.0f);
}

TEST(Affine, TensorQuantizeDequantize) {
  Rng rng(2);
  Tensor t(Shape{4, 5});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0f, 3.0f);
  const auto [lo, hi] = min_max(t);
  EXPECT_LE(lo, hi);
  const AffineParams p = choose_affine_params(lo, hi);
  const Tensor back = dequantize(quantize(t, p), p);
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_NEAR(back[i], t[i], p.scale / 2 + 1e-6f);
}

TEST(Binary, SignEncoding) {
  Tensor w(Shape{2, 3});
  w.at2(0, 0) = 0.5f;
  w.at2(0, 1) = -0.5f;
  w.at2(0, 2) = 0.0f;  // zero maps to +1
  w.at2(1, 0) = -2.0f;
  w.at2(1, 1) = 3.0f;
  w.at2(1, 2) = -0.1f;
  const BinaryMatrix m = binarize(w);
  EXPECT_FLOAT_EQ(m.value(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 1), -1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(m.value(1, 0), -1.0f);
}

TEST(Binary, XnorNetScale) {
  Tensor w(Shape{1, 4});
  w.at2(0, 0) = 1.0f;
  w.at2(0, 1) = -3.0f;
  w.at2(0, 2) = 2.0f;
  w.at2(0, 3) = -2.0f;
  const BinaryMatrix m = binarize(w, /*with_scale=*/true);
  EXPECT_FLOAT_EQ(m.row_scale[0], 2.0f);  // mean |w|
  EXPECT_FLOAT_EQ(m.value(0, 1), -2.0f);
}

TEST(Binary, DequantizeRoundTripSigns) {
  Rng rng(4);
  Tensor w(Shape{5, 37});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const Tensor back = dequantize(binarize(w));
  for (int64_t r = 0; r < 5; ++r)
    for (int64_t c = 0; c < 37; ++c)
      EXPECT_EQ(back.at2(r, c), w.at2(r, c) >= 0.0f ? 1.0f : -1.0f);
}

TEST(Ternary, TwnRule) {
  Tensor w(Shape{1, 5});
  // mean |w| = (1+0.1+0.2+2+0.05)/5 = 0.67; delta = 0.469.
  w.at2(0, 0) = 1.0f;
  w.at2(0, 1) = -0.1f;
  w.at2(0, 2) = 0.2f;
  w.at2(0, 3) = -2.0f;
  w.at2(0, 4) = 0.05f;
  const TernaryMatrix m = ternarize(w, /*with_scale=*/false);
  EXPECT_FLOAT_EQ(m.value(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.value(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(m.value(0, 3), -1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 4), 0.0f);
  EXPECT_DOUBLE_EQ(m.sparsity(), 3.0 / 5.0);
}

TEST(UniformActQuant, ThreeBitGrid) {
  const UniformActQuant q{3, 0.5f};
  EXPECT_EQ(q.levels(), 7);
  EXPECT_EQ(q.quantize(-1.0f), 0);    // ReLU-like clamp at zero
  EXPECT_EQ(q.quantize(0.24f), 0);
  EXPECT_EQ(q.quantize(0.26f), 1);
  EXPECT_EQ(q.quantize(100.0f), 7);
  EXPECT_FLOAT_EQ(q.dequantize(3), 1.5f);
}

TEST(Thresholds, ApplyCountsCrossings) {
  const ThresholdChannel ts{{-5, 0, 10}};
  EXPECT_EQ(ts.apply(-6), 0);
  EXPECT_EQ(ts.apply(-5), 1);
  EXPECT_EQ(ts.apply(0), 2);
  EXPECT_EQ(ts.apply(9), 2);
  EXPECT_EQ(ts.apply(10), 3);
}

TEST(Thresholds, FoldMatchesFloatQuantization) {
  // The folded integer thresholds must agree with quantizing the real
  // value (acc_scale·acc + bias) on the out_scale grid, for all acc.
  Rng rng(6);
  for (int rep = 0; rep < 100; ++rep) {
    const int bits = static_cast<int>(rng.uniform_int(1, 4));
    const float acc_scale = rng.uniform(0.01f, 0.5f);
    const float bias = rng.uniform(-2.0f, 2.0f);
    const float out_scale = rng.uniform(0.1f, 1.0f);
    const ThresholdChannel ts =
        fold_to_thresholds(bits, acc_scale, bias, out_scale);
    const UniformActQuant q{bits, out_scale};
    for (int32_t acc = -200; acc <= 200; ++acc) {
      const float real = acc_scale * static_cast<float>(acc) + bias;
      // Skip exact rounding boundaries where float vs double differ.
      const float frac = real / out_scale;
      if (std::fabs(frac - std::floor(frac) - 0.5f) < 1e-4f) continue;
      EXPECT_EQ(ts.apply(acc), q.quantize(real))
          << "acc=" << acc << " bits=" << bits;
    }
  }
}

TEST(Thresholds, FoldSaturatesOutOfRangeThresholds) {
  // A near-zero accumulator scale pushes (target − bias) / acc_scale far
  // past the int32 range; the fold saturates instead of casting.
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  const ThresholdChannel above = fold_to_thresholds(3, 1e-30f, 0.0f, 1.0f);
  for (const int32_t t : above.thresholds) EXPECT_EQ(t, kMax);
  EXPECT_EQ(above.apply(kMax - 1), 0);
  const ThresholdChannel below = fold_to_thresholds(3, 1e-30f, 100.0f, 1.0f);
  for (const int32_t t : below.thresholds) EXPECT_EQ(t, kMin);
  EXPECT_EQ(below.apply(kMin), 7);
  EXPECT_EQ(saturate_threshold(std::nan("")), kMax);
  EXPECT_EQ(saturate_threshold(-1e300), kMin);
  EXPECT_EQ(saturate_threshold(2147483646.0), kMax - 1);
  EXPECT_EQ(saturate_threshold(-2147483648.0), kMin);
}

}  // namespace
}  // namespace tincy::quant
