/// \file kernels_popcount_x86.cpp
/// x86 popcount variants of the bit-serial micro-kernel (BitSerialFn):
///
///   kPopcnt — the portable loop with the scalar POPCNT instruction;
///   kAvx2   — VPSHUFB nibble-table byte counts summed per 64-bit lane by
///             VPSADBW (Muła's method), 4 words per step;
///   kAvx512 — VPOPCNTQ, 8 words per step.
///
/// Each function carries its own target attribute so the TU builds
/// without global ISA flags; the dispatcher probes cpuid once and only
/// hands out what the machine executes. Vector variants load the
/// trailing words < vector width with masked loads (zero lanes), so no
/// scalar tail loop exists and every variant sums the same words.

#include "gemm/kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

namespace tincy::gemm {
namespace {

__attribute__((target("popcnt"))) void popcnt_bitserial(
    const uint64_t* w, int64_t rows, int64_t words, const uint64_t* a,
    int bits, int64_t* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t* wr = w + r * words;
    int64_t sum = 0;
    for (int b = 0; b < bits; ++b) {
      const uint64_t* ab = a + b * words;
      int64_t plane = 0;
      for (int64_t i = 0; i < words; ++i)
        plane += __builtin_popcountll(wr[i] & ab[i]);
      sum += plane << b;
    }
    out[r] = sum;
  }
}

#define TINCY_AVX2 __attribute__((target("avx2")))

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

TINCY_AVX2 void avx2_bitserial(const uint64_t* w, int64_t rows, int64_t words,
                               const uint64_t* a, int bits, int64_t* out) {
  const int64_t full = words / 4 * 4;
  const int64_t tail = words - full;
  const __m256i tail_mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(tail), _mm256_setr_epi64x(0, 1, 2, 3));
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t* wr = w + r * words;
    __m256i total = _mm256_setzero_si256();
    for (int b = bits - 1; b >= 0; --b) {  // Horner: total = 2·total + S_b
      const uint64_t* ab = a + b * words;
      __m256i acc = _mm256_setzero_si256();
      for (int64_t i = 0; i < full; i += 4) {
        const __m256i x = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wr + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ab + i)));
        acc = _mm256_add_epi64(acc, popcount_epi64_avx2(x));
      }
      if (tail) {
        const __m256i x = _mm256_and_si256(
            _mm256_maskload_epi64(
                reinterpret_cast<const long long*>(wr + full), tail_mask),
            _mm256_maskload_epi64(
                reinterpret_cast<const long long*>(ab + full), tail_mask));
        acc = _mm256_add_epi64(acc, popcount_epi64_avx2(x));
      }
      total = _mm256_add_epi64(_mm256_add_epi64(total, total), acc);
    }
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), total);
    out[r] = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
}

#undef TINCY_AVX2

__attribute__((target("avx512f,avx512vpopcntdq"))) void avx512_bitserial(
    const uint64_t* w, int64_t rows, int64_t words, const uint64_t* a,
    int bits, int64_t* out) {
  const int64_t full = words / 8 * 8;
  const auto tail = static_cast<__mmask8>((1u << (words - full)) - 1);
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t* wr = w + r * words;
    __m512i total = _mm512_setzero_si512();
    for (int b = bits - 1; b >= 0; --b) {  // Horner: total = 2·total + S_b
      const uint64_t* ab = a + b * words;
      __m512i acc = _mm512_setzero_si512();
      for (int64_t i = 0; i < full; i += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_loadu_si512(wr + i), _mm512_loadu_si512(ab + i))));
      if (tail)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_maskz_loadu_epi64(tail, wr + full),
                     _mm512_maskz_loadu_epi64(tail, ab + full))));
      total = _mm512_add_epi64(_mm512_add_epi64(total, total), acc);
    }
    alignas(64) int64_t lanes[8];
    _mm512_store_si512(lanes, total);
    out[r] = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
             lanes[6] + lanes[7];
  }
}

}  // namespace

BitSerialFn x86_bitserial_kernel(PopcountKernel k) {
  static const bool popcnt = __builtin_cpu_supports("popcnt");
  static const bool avx2 = __builtin_cpu_supports("avx2");
  static const bool avx512 = __builtin_cpu_supports("avx512f") &&
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
