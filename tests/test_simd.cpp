#include <gtest/gtest.h>

#include "core/fixed_point.hpp"
#include "core/rng.hpp"
#include "simd/vec.hpp"

namespace tincy::simd {
namespace {

TEST(Vec, LoadStoreSplat) {
  const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const F32x4 v = F32x4::load(data);
  float out[4] = {};
  v.store(out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], data[i]);
  const I16x8 s = I16x8::splat(-7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s[i], -7);
}

TEST(Vec, ElementwiseArithmetic) {
  F32x4 a{{1, 2, 3, 4}}, b{{10, 20, 30, 40}};
  const F32x4 sum = add(a, b);
  const F32x4 diff = sub(b, a);
  const F32x4 prod = mul(a, b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sum[i], a[i] + b[i]);
    EXPECT_EQ(diff[i], b[i] - a[i]);
    EXPECT_EQ(prod[i], a[i] * b[i]);
  }
}

TEST(Vec, MultiplyAccumulate) {
  const F32x4 acc{{1, 1, 1, 1}}, a{{2, 3, 4, 5}}, b{{10, 10, 10, 10}};
  const F32x4 r = mla(acc, a, b);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], 1.0f + a[i] * 10.0f);
}

TEST(Vec, WideningMulS8NoOverflow) {
  // VMULL.S8: extreme ±127/−128 products must be exact in 16 bits.
  I8x8 a{}, b{};
  a.lane = {127, -128, 127, -128, 1, -1, 0, 50};
  b.lane = {127, -128, -128, 127, -1, -1, 99, 50};
  const I16x8 r = widening_mul(a, b);
  EXPECT_EQ(r[0], 16129);
  EXPECT_EQ(r[1], 16384);
  EXPECT_EQ(r[2], -16256);
  EXPECT_EQ(r[3], -16256);
  EXPECT_EQ(r[4], -1);
  EXPECT_EQ(r[5], 1);
  EXPECT_EQ(r[6], 0);
  EXPECT_EQ(r[7], 2500);
}

TEST(Vec, WideningMulS16) {
  I16x4 a{{32767, -32768, 100, -5}};
  I16x4 b{{32767, -32768, -100, 5}};
  const I32x4 r = widening_mul(a, b);
  EXPECT_EQ(r[0], 32767 * 32767);
  EXPECT_EQ(r[1], 32768 * 32768);
  EXPECT_EQ(r[2], -10000);
  EXPECT_EQ(r[3], -25);
}

TEST(Vec, PairwiseAddAccumulateLong) {
  I32x4 acc{{100, 200, 300, 400}};
  I16x8 x{{1, 2, 3, 4, 5, 6, 7, 8}};
  const I32x4 r = pairwise_add_accumulate_long(acc, x);
  EXPECT_EQ(r[0], 103);
  EXPECT_EQ(r[1], 207);
  EXPECT_EQ(r[2], 311);
  EXPECT_EQ(r[3], 415);
}

TEST(Vec, SaturatingAddI16) {
  I16x8 a = I16x8::splat(32000);
  I16x8 b = I16x8::splat(32000);
  const I16x8 r = saturating_add(a, b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r[i], 32767);
}

TEST(Vec, RoundingShiftRightMatchesScalar) {
  tincy::Rng rng(9);
  for (int rep = 0; rep < 200; ++rep) {
    I16x8 v{};
    for (auto& lane : v.lane)
      lane = static_cast<int16_t>(rng.uniform_int(-32768, 32767));
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const I16x8 r = rounding_shift_right(v, n);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(r[i], tincy::rounding_right_shift<int16_t>(v[i], n));
  }
}

// --- VQRSHRN rounding-narrow edge cases --------------------------------
// These are the lane ops the packed GEMM micro-kernels stand on; any
// rounding/saturation drift must fail here before it reaches the GEMM
// conformance suite.

TEST(Vec, RoundingNarrowingShiftRightTies) {
  // Round-half-up toward +inf, NEON VRSHR semantics: +1.5 -> 2, -1.5 -> -1.
  I32x4 lo{{24, -24, 8, -8}};
  I32x4 hi{{40, -40, 0, 17}};
  const I16x8 r = rounding_narrowing_shift_right(lo, hi, 4);
  EXPECT_EQ(r[0], 2);    // 24/16 = 1.5, tie rounds up
  EXPECT_EQ(r[1], -1);   // -1.5 rounds toward +inf
  EXPECT_EQ(r[2], 1);    // 0.5 -> 1
  EXPECT_EQ(r[3], 0);    // -0.5 -> 0
  EXPECT_EQ(r[4], 3);    // 2.5 -> 3
  EXPECT_EQ(r[5], -2);   // -2.5 -> -2
  EXPECT_EQ(r[6], 0);
  EXPECT_EQ(r[7], 1);    // 17/16 -> 1.0625 rounds to 1
}

TEST(Vec, RoundingNarrowingShiftRightSaturates) {
  // The rounded shift happens in wide precision: INT32_MAX + half-ulp
  // must not wrap before the narrow saturates it.
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  I32x4 lo{{kMax, kMin, 32767 << 4, -(32768 << 4)}};
  I32x4 hi{{(32767 << 4) + (1 << 3), 524288, -524289, 0}};
  const I16x8 r = rounding_narrowing_shift_right(lo, hi, 4);
  EXPECT_EQ(r[0], 32767);   // huge positive saturates high
  EXPECT_EQ(r[1], -32768);  // huge negative saturates low
  EXPECT_EQ(r[2], 32767);   // exactly representable after shift
  EXPECT_EQ(r[3], -32768);
  EXPECT_EQ(r[4], 32767);   // rounds to 32768, then saturates
  EXPECT_EQ(r[5], 32767);   // 524288 >> 4 = 32768 saturates
  EXPECT_EQ(r[6], -32768);  // rounds to -32768.0625 -> -32768 exactly
  EXPECT_EQ(r[7], 0);
}

TEST(Vec, RoundingNarrowingShiftRightNegativeShiftGuard) {
  // NEON immediates are 1..lane-bits; n <= 0 must degrade to a plain
  // saturating narrow, not shift by a negative/huge amount (UB).
  I32x4 lo{{100000, -100000, 42, -7}};
  I32x4 hi{{32768, -32769, 0, 1}};
  for (int n : {0, -1, -16}) {
    const I16x8 r = rounding_narrowing_shift_right(lo, hi, n);
    EXPECT_EQ(r[0], 32767) << n;
    EXPECT_EQ(r[1], -32768) << n;
    EXPECT_EQ(r[2], 42) << n;
    EXPECT_EQ(r[3], -7) << n;
    EXPECT_EQ(r[4], 32767) << n;
    EXPECT_EQ(r[5], -32768) << n;
  }
}

TEST(Vec, RoundingNarrowingShiftRightI16ToI8) {
  I16x8 lo{{127 << 3, -(128 << 3), 1020, -1021, 4, -4, 32767, -32768}};
  I16x8 hi{{0, 12, -12, 3000, -3000, 1, -1, 500}};
  const I8x16 r = rounding_narrowing_shift_right(lo, hi, 3);
  EXPECT_EQ(r[0], 127);    // exactly max
  EXPECT_EQ(r[1], -128);   // exactly min
  EXPECT_EQ(r[2], 127);    // 127.5 rounds to 128, saturates
  EXPECT_EQ(r[3], -128);   // -127.625 -> -128 after floor+round? exact check
  EXPECT_EQ(r[4], 1);      // 0.5 -> 1
  EXPECT_EQ(r[5], 0);      // -0.5 -> 0
  EXPECT_EQ(r[6], 127);    // saturates
  EXPECT_EQ(r[7], -128);   // saturates
  EXPECT_EQ(r[8], 0);
  EXPECT_EQ(r[9], 2);      // 1.5 -> 2
  EXPECT_EQ(r[10], -1);    // -1.5 -> -1
  EXPECT_EQ(r[11], 127);
  EXPECT_EQ(r[12], -128);
  EXPECT_EQ(r[13], 0);     // 0.125 -> 0
  EXPECT_EQ(r[14], 0);     // -0.125 -> 0
  EXPECT_EQ(r[15], 63);    // 62.5 -> 63
}

TEST(Vec, RoundingNarrowingShiftRightMatchesScalarComposition) {
  tincy::Rng rng(11);
  for (int rep = 0; rep < 500; ++rep) {
    I32x4 lo{}, hi{};
    for (auto& lane : lo.lane)
      lane = static_cast<int32_t>(rng.uniform_int(
          std::numeric_limits<int32_t>::min(),
          std::numeric_limits<int32_t>::max()));
    for (auto& lane : hi.lane)
      lane = static_cast<int32_t>(rng.uniform_int(-1 << 20, 1 << 20));
    const int n = static_cast<int>(rng.uniform_int(0, 16));
    const I16x8 r = rounding_narrowing_shift_right(lo, hi, n);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(r[i], tincy::saturate_cast<int16_t>(
                          tincy::rounding_right_shift<int32_t>(lo[i], n)));
      EXPECT_EQ(r[i + 4], tincy::saturate_cast<int16_t>(
                              tincy::rounding_right_shift<int32_t>(hi[i], n)));
    }
  }
}

TEST(Vec, RoundingShiftRightWidePromotionAtLaneMax) {
  // (32767 + 8) overflows int16 if computed narrowly; the helper promotes
  // to a wide type, so the rounded shift of the lane max is exact.
  I16x8 v = I16x8::splat(32767);
  const I16x8 r = rounding_shift_right(v, 4);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r[i], 2048);
  I16x8 m = I16x8::splat(-32768);
  const I16x8 rm = rounding_shift_right(m, 4);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rm[i], -2048);
}

TEST(Vec, WideningMlaSaturationBoundary) {
  // The i32 micro-kernel's inner op: acc_u32 += u16(s * b). The extreme
  // 255*255 product must stay exact through the u16 intermediate.
  U32x16 acc{};
  U8x16 b = U8x16::splat(255);
  acc = widening_mla(acc, b, 255);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(acc.lane[i], 65025u);
  acc = widening_mla(acc, b, 1);   // + 255
  for (int i = 0; i < 16; ++i) EXPECT_EQ(acc.lane[i], 65280u);
}

TEST(Vec, SaturatingNarrowI32ToI16) {
  I32x4 lo{{100000, -100000, 5, -5}};
  I32x4 hi{{32768, -32769, 32767, -32768}};
  const I16x8 r = saturating_narrow(lo, hi);
  EXPECT_EQ(r[0], 32767);
  EXPECT_EQ(r[1], -32768);
  EXPECT_EQ(r[2], 5);
  EXPECT_EQ(r[3], -5);
  EXPECT_EQ(r[4], 32767);
  EXPECT_EQ(r[5], -32768);
  EXPECT_EQ(r[6], 32767);
  EXPECT_EQ(r[7], -32768);
}

TEST(Vec, SplitHalves) {
  I16x8 v{{0, 1, 2, 3, 4, 5, 6, 7}};
  const auto [lo, hi] = split(v);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lo[i], i);
    EXPECT_EQ(hi[i], i + 4);
  }
}

TEST(Vec, WidenU8Halves) {
  U8x16 v{};
  for (int i = 0; i < 16; ++i) v.lane[static_cast<size_t>(i)] = static_cast<uint8_t>(240 + i);
  const I16x8 lo = widen_low(v), hi = widen_high(v);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(lo[i], 240 + i);       // zero-extended, not sign-extended
    EXPECT_EQ(hi[i], 240 + 8 + i);
  }
}

TEST(Vec, HorizontalSum) {
  F32x4 f{{1.5f, 2.5f, 3.0f, 4.0f}};
  EXPECT_FLOAT_EQ(horizontal_sum(f), 11.0f);
  I32x4 i{{1, -2, 3, -4}};
  EXPECT_EQ(horizontal_sum(i), -2);
}

}  // namespace
}  // namespace tincy::simd
