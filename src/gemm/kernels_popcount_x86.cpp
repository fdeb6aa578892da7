/// \file kernels_popcount_x86.cpp
/// x86 variants of the bit-serial tile kernel (BitSerialFn):
///
///   kPopcnt — the scalar tile with the POPCNT instruction;
///   kAvx2   — 4 rows per ymm, per-lane popcounts from a VPSHUFB nibble
///             table summed by VPSADBW (Muła's method);
///   kAvx512 — 8 rows per zmm, VPOPCNTQ.
///
/// Each tile holds one 64-bit accumulator lane per (column, row): an
/// activation word is broadcast to every lane, ANDed with the row group's
/// weight word and popcounted, and planes combine by Horner. Each
/// function carries its own target attribute so the TU builds without
/// global ISA flags; the dispatcher probes cpuid once and only hands out
/// what the machine executes.

#include "gemm/kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include "gemm/bitserial_tile.hpp"

namespace tincy::gemm {
namespace {

using tile::kRows;

__attribute__((target("popcnt"))) void popcnt_bitserial(
    const BitSerialTileArgs& a, const uint64_t* planes, int64_t count,
    int32_t* acc) {
  tile::run_call<1, 1, tile::ScalarTile>(a, planes, count, acc);
}

#define TINCY_AVX2 __attribute__((target("avx2,popcnt")))

/// Per-64-bit-lane popcount of v: nibble lookups, then a byte sum.
TINCY_AVX2 inline __m256i popcount_epi64_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// NC columns × NG groups, each group two ymm of 4 rows.
struct Avx2Tile {
  template <int NC, int NG, bool kTernary>
  TINCY_AVX2 static void run(const BitSerialTileArgs& a,
                             const uint64_t* planes, int64_t g0,
                             const int64_t* bias, int32_t* acc) {
    constexpr int H = 2 * NG;  // ymm halves
    const int64_t words = a.words, col_words = a.bits * words;
    const uint64_t* pos = a.positive + g0 * words * kRows;
    const uint64_t* nz = kTernary ? a.nonzero + g0 * words * kRows : nullptr;
    __m256i t[NC][H];
#pragma GCC unroll 8
    for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
      for (int h = 0; h < H; ++h) t[j][h] = _mm256_setzero_si256();
    for (int b = a.bits - 1; b >= 0; --b) {
#pragma GCC unroll 8
      for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
        for (int h = 0; h < H; ++h)
          t[j][h] = _mm256_add_epi64(t[j][h], t[j][h]);
      const uint64_t* ab = planes + b * words;
      for (int64_t i = 0; i < words; ++i) {
        __m256i wp[H], wn[H];
#pragma GCC unroll 8
        for (int h = 0; h < H; ++h) {
          const int64_t off = ((h / 2) * words + i) * kRows + (h % 2) * 4;
          wp[h] =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + off));
          if constexpr (kTernary)
            wn[h] =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nz + off));
        }
#pragma GCC unroll 8
        for (int j = 0; j < NC; ++j) {
          const __m256i x = _mm256_set1_epi64x(
              static_cast<long long>(ab[j * col_words + i]));
#pragma GCC unroll 8
          for (int h = 0; h < H; ++h) {
            const __m256i p = popcount_epi64_avx2(_mm256_and_si256(wp[h], x));
            if constexpr (kTernary)
              t[j][h] = _mm256_add_epi64(
                  t[j][h],
                  _mm256_sub_epi64(
                      _mm256_add_epi64(p, p),
                      popcount_epi64_avx2(_mm256_and_si256(wn[h], x))));
            else
              t[j][h] = _mm256_add_epi64(t[j][h], p);
          }
        }
      }
    }
    const __m128i shift = _mm_cvtsi32_si128(a.shift);
    const __m256i evens = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
#pragma GCC unroll 8
    for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
      for (int g = 0; g < NG; ++g) {
        alignas(32) int32_t v[kRows];
#pragma GCC unroll 2
        for (int half = 0; half < 2; ++half) {
          __m256i s =
              _mm256_add_epi64(_mm256_sll_epi64(t[j][2 * g + half], shift),
                               _mm256_set1_epi64x(bias[j]));
          if (a.row_bias)
            s = _mm256_add_epi64(
                s, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                       a.row_bias + (g0 + g) * kRows + half * 4)));
          _mm_store_si128(reinterpret_cast<__m128i*>(v + 4 * half),
                          _mm256_castsi256_si128(
                              _mm256_permutevar8x32_epi32(s, evens)));
        }
        tile::store_group(a, g0 + g, v, acc + j * a.rows);
      }
  }
};

TINCY_AVX2 void avx2_bitserial(const BitSerialTileArgs& a,
                               const uint64_t* planes, int64_t count,
                               int32_t* acc) {
  tile::run_call<2, 1, Avx2Tile>(a, planes, count, acc);
}

#undef TINCY_AVX2

#define TINCY_AVX512 \
  __attribute__((target("avx512f,avx512vpopcntdq,popcnt")))

/// NC columns × NG groups, each group one zmm of 8 rows.
struct Avx512Tile {
  template <int NC, int NG, bool kTernary>
  TINCY_AVX512 static void run(const BitSerialTileArgs& a,
                               const uint64_t* planes, int64_t g0,
                               const int64_t* bias, int32_t* acc) {
    const int64_t words = a.words, col_words = a.bits * words;
    const uint64_t* pos = a.positive + g0 * words * kRows;
    const uint64_t* nz = kTernary ? a.nonzero + g0 * words * kRows : nullptr;
    __m512i t[NC][NG];
#pragma GCC unroll 8
    for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
      for (int g = 0; g < NG; ++g) t[j][g] = _mm512_setzero_si512();
    for (int b = a.bits - 1; b >= 0; --b) {
#pragma GCC unroll 8
      for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
        for (int g = 0; g < NG; ++g)
          t[j][g] = _mm512_add_epi64(t[j][g], t[j][g]);
      const uint64_t* ab = planes + b * words;
      for (int64_t i = 0; i < words; ++i) {
        __m512i wp[NG], wn[NG];
#pragma GCC unroll 8
        for (int g = 0; g < NG; ++g) {
          wp[g] = _mm512_loadu_si512(pos + (g * words + i) * kRows);
          if constexpr (kTernary)
            wn[g] = _mm512_loadu_si512(nz + (g * words + i) * kRows);
        }
#pragma GCC unroll 8
        for (int j = 0; j < NC; ++j) {
          const __m512i x = _mm512_set1_epi64(
              static_cast<long long>(ab[j * col_words + i]));
#pragma GCC unroll 8
          for (int g = 0; g < NG; ++g) {
            const __m512i p = _mm512_popcnt_epi64(_mm512_and_si512(wp[g], x));
            if constexpr (kTernary)
              t[j][g] = _mm512_add_epi64(
                  t[j][g], _mm512_sub_epi64(_mm512_add_epi64(p, p),
                                            _mm512_popcnt_epi64(
                                                _mm512_and_si512(wn[g], x))));
            else
              t[j][g] = _mm512_add_epi64(t[j][g], p);
          }
        }
      }
    }
    const __m128i shift = _mm_cvtsi32_si128(a.shift);
#pragma GCC unroll 8
    for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
      for (int g = 0; g < NG; ++g) {
        const int64_t row0 = (g0 + g) * kRows;
        // The maskz form: the unmasked one warns on its undefined source.
        __m512i s =
            _mm512_add_epi64(_mm512_maskz_sll_epi64(0xff, t[j][g], shift),
                             _mm512_set1_epi64(bias[j]));
        if (a.row_bias)
          s = _mm512_add_epi64(s, _mm512_loadu_si512(a.row_bias + row0));
        const int64_t live = std::min<int64_t>(kRows, a.rows - row0);
        _mm512_mask_cvtepi64_storeu_epi32(
            acc + j * a.rows + row0, static_cast<__mmask8>((1u << live) - 1),
            s);
      }
  }
};

TINCY_AVX512 void avx512_bitserial(const BitSerialTileArgs& a,
                                   const uint64_t* planes, int64_t count,
                                   int32_t* acc) {
  tile::run_call<4, 4, Avx512Tile>(a, planes, count, acc);
}

#undef TINCY_AVX512

}  // namespace

BitSerialFn x86_bitserial_kernel(PopcountKernel k) {
  static const bool popcnt = __builtin_cpu_supports("popcnt");
  static const bool avx2 = popcnt && __builtin_cpu_supports("avx2");
  static const bool avx512 = popcnt && __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512vpopcntdq");
  switch (k) {
    case PopcountKernel::kPopcnt: return popcnt ? popcnt_bitserial : nullptr;
    case PopcountKernel::kAvx2: return avx2 ? avx2_bitserial : nullptr;
    case PopcountKernel::kAvx512: return avx512 ? avx512_bitserial : nullptr;
    default: return nullptr;
  }
}

}  // namespace tincy::gemm

#else  // non-x86 or non-GCC-compatible build: only kPortable exists

namespace tincy::gemm {
BitSerialFn x86_bitserial_kernel(PopcountKernel) { return nullptr; }
}  // namespace tincy::gemm

#endif
