#pragma once

/// \file vec.hpp
/// Portable SIMD vector types mirroring ARM NEON semantics.
///
/// The paper exploits the Cortex-A53's NEON unit: 128-bit registers split
/// into 4 single-precision lanes, 8 16-bit lanes or 16 8-bit lanes. The
/// host in this reproduction is x86, so these classes provide the same
/// *lane model and arithmetic semantics* (including NEON's saturating and
/// rounding behaviours) in portable C++; modern compilers auto-vectorize
/// the fixed-trip-count lane loops. Each operation documents the NEON
/// instruction it models so the kernels in src/gemm read like their
/// intrinsics-based originals.

#include <array>
#include <cstdint>

#include "core/fixed_point.hpp"

namespace tincy::simd {

/// Fixed-width vector of N lanes of T. Aggregate; value-semantic.
template <typename T, int N>
struct Vec {
  static constexpr int kLanes = N;
  using lane_type = T;

  std::array<T, N> lane{};

  /// Loads N contiguous lanes (NEON VLD1).
  static Vec load(const T* p) {
    Vec v;
    for (int i = 0; i < N; ++i) v.lane[i] = p[i];
    return v;
  }

  /// Broadcasts a scalar into every lane (NEON VDUP).
  static Vec splat(T x) {
    Vec v;
    v.lane.fill(x);
    return v;
  }

  /// Stores N contiguous lanes (NEON VST1).
  void store(T* p) const {
    for (int i = 0; i < N; ++i) p[i] = lane[i];
  }

  T operator[](int i) const { return lane[static_cast<size_t>(i)]; }
  T& operator[](int i) { return lane[static_cast<size_t>(i)]; }

  bool operator==(const Vec&) const = default;
};

// NEON 128-bit register views used by the kernels.
using F32x4 = Vec<float, 4>;
using I32x4 = Vec<int32_t, 4>;
using I16x8 = Vec<int16_t, 8>;
using I8x16 = Vec<int8_t, 16>;
using U8x16 = Vec<uint8_t, 16>;
using U16x8 = Vec<uint16_t, 8>;
using U32x4 = Vec<uint32_t, 4>;
using I8x8 = Vec<int8_t, 8>;    // 64-bit D-register view feeding VMULL.
using I16x4 = Vec<int16_t, 4>;  // 64-bit D-register view feeding VMULL.
using U8x8 = Vec<uint8_t, 8>;   // 64-bit D-register view feeding VMULL.U8.

// Register *blocks* used by the packed GEMM micro-kernel: one block spans
// several NEON Q registers (U32x16 = 4 × q-registers of u32 lanes, I16x16 =
// 2 × q-registers of i16 lanes) so a 4×16 output tile lives entirely in
// registers. The lane loops below still model per-register NEON ops.
using U32x16 = Vec<uint32_t, 16>;
using I16x16 = Vec<int16_t, 16>;

/// Lane-wise addition (VADD).
template <typename T, int N>
Vec<T, N> add(Vec<T, N> a, Vec<T, N> b) {
  for (int i = 0; i < N; ++i) a.lane[i] = static_cast<T>(a.lane[i] + b.lane[i]);
  return a;
}

/// Lane-wise subtraction (VSUB).
template <typename T, int N>
Vec<T, N> sub(Vec<T, N> a, Vec<T, N> b) {
  for (int i = 0; i < N; ++i) a.lane[i] = static_cast<T>(a.lane[i] - b.lane[i]);
  return a;
}

/// Lane-wise multiplication (VMUL).
template <typename T, int N>
Vec<T, N> mul(Vec<T, N> a, Vec<T, N> b) {
  for (int i = 0; i < N; ++i) a.lane[i] = static_cast<T>(a.lane[i] * b.lane[i]);
  return a;
}

/// Multiply-accumulate acc += a*b (VMLA).
template <typename T, int N>
Vec<T, N> mla(Vec<T, N> acc, Vec<T, N> a, Vec<T, N> b) {
  for (int i = 0; i < N; ++i)
    acc.lane[i] = static_cast<T>(acc.lane[i] + a.lane[i] * b.lane[i]);
  return acc;
}

/// Lane-wise saturating addition for narrow signed integers (VQADD).
template <typename T, int N>
Vec<T, N> saturating_add(Vec<T, N> a, Vec<T, N> b) {
  for (int i = 0; i < N; ++i)
    a.lane[i] = tincy::saturating_add<T>(a.lane[i], b.lane[i]);
  return a;
}

/// Rounding arithmetic shift right by a compile-time-ish amount (VRSHR).
template <typename T, int N>
Vec<T, N> rounding_shift_right(Vec<T, N> a, int n) {
  for (int i = 0; i < N; ++i)
    a.lane[i] = tincy::rounding_right_shift<T>(a.lane[i], n);
  return a;
}

/// Widening multiply of signed 8-bit D-registers: i8x8 * i8x8 -> i16x8
/// (VMULL.S8). Products of two 8-bit values always fit in 16 bits.
inline I16x8 widening_mul(I8x8 a, I8x8 b) {
  I16x8 r;
  for (int i = 0; i < 8; ++i)
    r.lane[i] = static_cast<int16_t>(static_cast<int16_t>(a.lane[i]) *
                                     static_cast<int16_t>(b.lane[i]));
  return r;
}

/// Widening multiply of signed 16-bit D-registers: i16x4 * i16x4 -> i32x4
/// (VMULL.S16).
inline I32x4 widening_mul(I16x4 a, I16x4 b) {
  I32x4 r;
  for (int i = 0; i < 4; ++i)
    r.lane[i] = static_cast<int32_t>(a.lane[i]) * static_cast<int32_t>(b.lane[i]);
  return r;
}

/// Widening multiply of unsigned 8-bit D-registers: u8x8 * u8x8 -> u16x8
/// (VMULL.U8). Products of two unsigned 8-bit values always fit in 16 bits.
inline U16x8 widening_mul(U8x8 a, U8x8 b) {
  U16x8 r;
  for (int i = 0; i < 8; ++i)
    r.lane[i] = static_cast<uint16_t>(static_cast<uint16_t>(a.lane[i]) *
                                      static_cast<uint16_t>(b.lane[i]));
  return r;
}

/// Widening multiply-accumulate of a u8 register block by a broadcast u8
/// scalar: acc_u32[j] += u16(s * b[j]). Models the VDUP.8 + VMULL.U8 +
/// VADDW.U16 sequence the gemmlowp NEON kernels issue per packed LHS byte
/// (two VMULL/VADDW pairs per 16-lane block half). The u8×u8 product is
/// exact in u16; the u32 accumulate is exact for any practical K.
inline U32x16 widening_mla(U32x16 acc, U8x16 b, uint8_t s) {
  for (int i = 0; i < 16; ++i)
    acc.lane[i] += static_cast<uint32_t>(
        static_cast<uint16_t>(static_cast<uint16_t>(s) *
                              static_cast<uint16_t>(b.lane[i])));
  return acc;
}

/// Pairwise add-and-accumulate-long: acc_i32x4 += pairwise_sums(i16x8)
/// (VPADAL.S16). The widening sum cannot overflow int32 for realistic
/// kernel depths.
inline I32x4 pairwise_add_accumulate_long(I32x4 acc, I16x8 x) {
  for (int i = 0; i < 4; ++i)
    acc.lane[i] += static_cast<int32_t>(x.lane[2 * i]) +
                   static_cast<int32_t>(x.lane[2 * i + 1]);
  return acc;
}

/// Horizontal sum of all lanes (VPADD cascade / VADDV on AArch64).
template <typename T, int N>
auto horizontal_sum(Vec<T, N> v) {
  using Acc = std::conditional_t<std::is_floating_point_v<T>, T, int64_t>;
  Acc s{};
  for (int i = 0; i < N; ++i) s += v.lane[i];
  return s;
}

/// Splits a 128-bit register into low/high 64-bit D-register halves
/// (VGET_LOW / VGET_HIGH).
template <typename T, int N>
std::pair<Vec<T, N / 2>, Vec<T, N / 2>> split(Vec<T, N> v) {
  static_assert(N % 2 == 0);
  Vec<T, N / 2> lo, hi;
  for (int i = 0; i < N / 2; ++i) {
    lo.lane[i] = v.lane[i];
    hi.lane[i] = v.lane[i + N / 2];
  }
  return {lo, hi};
}

/// Saturating rounding shift-right-narrow of two i32x4 into one i16x8
/// (VQRSHRN.S32 pair): round-half-up shift performed in wide precision
/// (no intermediate overflow), then saturation to the narrow lane range —
/// the requantization narrow the paper's NEON kernels end on. NEON
/// encodes shift immediates 1..lane-bits; a non-positive n is guarded to
/// "no shift" so the op degrades to a plain saturating narrow (VQMOVN)
/// instead of invoking undefined shift behaviour.
inline I16x8 rounding_narrowing_shift_right(I32x4 lo, I32x4 hi, int n) {
  I16x8 r;
  for (int i = 0; i < 4; ++i) {
    r.lane[i] = tincy::saturate_cast<int16_t>(
        tincy::rounding_right_shift<int32_t>(lo.lane[i], n));
    r.lane[i + 4] = tincy::saturate_cast<int16_t>(
        tincy::rounding_right_shift<int32_t>(hi.lane[i], n));
  }
  return r;
}

/// Saturating rounding shift-right-narrow of two i16x8 into one i8x16
/// (VQRSHRN.S16 pair). Same semantics as the i32→i16 form.
inline I8x16 rounding_narrowing_shift_right(I16x8 lo, I16x8 hi, int n) {
  I8x16 r;
  for (int i = 0; i < 8; ++i) {
    r.lane[i] = tincy::saturate_cast<int8_t>(
        tincy::rounding_right_shift<int16_t>(lo.lane[i], n));
    r.lane[i + 8] = tincy::saturate_cast<int8_t>(
        tincy::rounding_right_shift<int16_t>(hi.lane[i], n));
  }
  return r;
}

/// Saturating narrow of two i32x4 into one i16x8 (VQMOVN.S32 pair).
inline I16x8 saturating_narrow(I32x4 lo, I32x4 hi) {
  I16x8 r;
  for (int i = 0; i < 4; ++i) {
    r.lane[i] = tincy::saturate_cast<int16_t>(lo.lane[i]);
    r.lane[i + 4] = tincy::saturate_cast<int16_t>(hi.lane[i]);
  }
  return r;
}

/// Saturating narrow of two i16x8 into one i8x16 (VQMOVN.S16 pair).
inline I8x16 saturating_narrow(I16x8 lo, I16x8 hi) {
  I8x16 r;
  for (int i = 0; i < 8; ++i) {
    r.lane[i] = tincy::saturate_cast<int8_t>(lo.lane[i]);
    r.lane[i + 8] = tincy::saturate_cast<int8_t>(hi.lane[i]);
  }
  return r;
}

/// Zero-extending widen of unsigned 8-bit lanes to 16-bit (VMOVL.U8),
/// returned as signed lanes ready for signed arithmetic.
inline I16x8 widen_low(U8x16 v) {
  I16x8 r;
  for (int i = 0; i < 8; ++i) r.lane[i] = static_cast<int16_t>(v.lane[i]);
  return r;
}
inline I16x8 widen_high(U8x16 v) {
  I16x8 r;
  for (int i = 0; i < 8; ++i) r.lane[i] = static_cast<int16_t>(v.lane[i + 8]);
  return r;
}

}  // namespace tincy::simd
