/// \file kernels_avx2.cpp
/// x86 variants of the 8-bit conv driver's exact-i32 tile (Kernel::kAvx2
/// and Kernel::kAvx512).
///
/// The exact-i32 tile runs over k-pairs with VPMADDWD: panel rows k and
/// k+1 (16 u8 each) are interleaved byte by byte and zero-extended, so
/// every i32 lane holds one column's pair (b[k][j], b[k+1][j]) as two s16;
/// the LHS pair (a[k][r], a[k+1][r]) is broadcast as one i32, and one
/// VPMADDWD yields a[k][r]·b[k][j] + a[k+1][r]·b[k+1][j] per column, added
/// into i32 accumulators. An odd K ends with one k against a zero partner.
/// kAvx2 holds a row's 16 columns in two ymm, kAvx512 in one zmm; the
/// packed panel layouts are those of gemm_packed.hpp, unchanged.
///
/// Each function carries its own target attribute so the TU builds
/// without global ISA flags; the dispatcher probes cpuid once and only
/// hands out what the machine executes. Bit-identity with the scalar
/// oracle is by construction: a u8·u8 pair sum is at most
/// 2·255·255 = 130,050, exact in a VPMADDWD lane, and i32 adds wrap like
/// the scalar u32 ones.

#include "gemm/kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

#include <cstring>

#include "gemm/gemm_packed.hpp"

namespace tincy::gemm {
namespace {

#define TINCY_AVX2 __attribute__((target("avx2")))
#define TINCY_AVX512 __attribute__((target("avx2,avx512f,avx512bw")))

static_assert(kMr == 4 && kNr == 16, "the k-pair tiles are 4×16");

/// The kMr bytes of LHS k-step k and, when `pair`, those of k+1: one
/// little-endian word, a[k][0..3] in bytes 0-3 and a[k+1][0..3] in bytes
/// 4-7 (zero without a partner, so the odd tail never reads past K).
inline int64_t lhs_pair_bytes(const uint8_t* a, bool pair) {
  int64_t v = 0;
  std::memcpy(&v, a, pair ? 2 * kMr : kMr);
  return v;
}

/// PSHUFB control turning lhs_pair_bytes into one i32 per row: i32 lane
/// r takes byte r (a[k][r]) and byte 4 + r (a[k+1][r]) as two u16, the
/// 0xFF bytes read as zero. Four i32 lanes, repeated per 128-bit lane.
constexpr int kPairControl[4] = {
    static_cast<int>(0xFF04FF00), static_cast<int>(0xFF05FF01),
    static_cast<int>(0xFF06FF02), static_cast<int>(0xFF07FF03)};

/// One k-pair (or, without `pair`, the last odd k) of the AVX2 tile:
/// columns 0-7 in `lo`, 8-15 in `hi`, one ymm each per row.
TINCY_AVX2 inline void avx2_kpair(const uint8_t* a, const uint8_t* b,
                                  bool pair, __m256i* lo, __m256i* hi) {
  const __m128i bk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i bk1 =
      pair ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kNr))
           : _mm_setzero_si128();
  const __m256i b_lo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(bk, bk1));
  const __m256i b_hi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(bk, bk1));
  const __m256i ap = _mm256_shuffle_epi8(
      _mm256_set1_epi64x(lhs_pair_bytes(a, pair)),
      _mm256_setr_epi32(kPairControl[0], kPairControl[1], kPairControl[2],
                        kPairControl[3], kPairControl[0], kPairControl[1],
                        kPairControl[2], kPairControl[3]));
  const __m256i ar[kMr] = {
      _mm256_shuffle_epi32(ap, 0x00), _mm256_shuffle_epi32(ap, 0x55),
      _mm256_shuffle_epi32(ap, 0xAA), _mm256_shuffle_epi32(ap, 0xFF)};
  for (int64_t r = 0; r < kMr; ++r) {
    lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(b_lo, ar[r]));
    hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(b_hi, ar[r]));
  }
}

/// 4×16 i32 tile: raw unsigned dot of the zero-point decomposition, two
/// ymm of i32 accumulators per row.
TINCY_AVX2 void avx2_i32(const uint8_t* a, const uint8_t* b, int64_t K,
                         uint32_t* tile) {
  __m256i lo[kMr], hi[kMr];
  for (int64_t r = 0; r < kMr; ++r) lo[r] = hi[r] = _mm256_setzero_si256();
  int64_t k = 0;
  for (; k + 2 <= K; k += 2)
    avx2_kpair(a + k * kMr, b + k * kNr, true, lo, hi);
  if (k < K) avx2_kpair(a + k * kMr, b + k * kNr, false, lo, hi);
  for (int64_t r = 0; r < kMr; ++r) {
    __m256i* out = reinterpret_cast<__m256i*>(tile + r * kNr);
    _mm256_storeu_si256(out, lo[r]);
    _mm256_storeu_si256(out + 1, hi[r]);
  }
}

/// One k-pair (or the last odd k) of the AVX-512 tile: all 16 columns ×
/// 2 k of a row in one zmm. The two panel rows are zero-extended side by
/// side (row k in u16 lanes 0-15, row k+1 in 16-31), then VPERMW
/// interleaves them: lane 2j takes lane j, lane 2j + 1 lane 16 + j.
TINCY_AVX512 inline void avx512_kpair(const uint8_t* a, const uint8_t* b,
                                      bool pair, __m512i* acc) {
  const __m256i rows =
      pair ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b))
           : _mm256_zextsi128_si256(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  const __m512i bz = _mm512_permutexvar_epi16(
      _mm512_set_epi16(31, 15, 30, 14, 29, 13, 28, 12, 27, 11, 26, 10, 25, 9,
                       24, 8, 23, 7, 22, 6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1,
                       16, 0),
      _mm512_cvtepu8_epi16(rows));
  const __m512i ap = _mm512_shuffle_epi8(
      _mm512_set1_epi64(lhs_pair_bytes(a, pair)),
      _mm512_setr4_epi32(kPairControl[0], kPairControl[1], kPairControl[2],
                         kPairControl[3]));
  // Row r's pair in every lane (VPERMD). The zero-masking form with a
  // full mask is the plain instruction; GCC 12's unmasked intrinsic warns
  // on its undefined pass-through operand.
  const __m512i ar[kMr] = {
      _mm512_maskz_permutexvar_epi32(0xFFFF, _mm512_set1_epi32(0), ap),
      _mm512_maskz_permutexvar_epi32(0xFFFF, _mm512_set1_epi32(1), ap),
      _mm512_maskz_permutexvar_epi32(0xFFFF, _mm512_set1_epi32(2), ap),
      _mm512_maskz_permutexvar_epi32(0xFFFF, _mm512_set1_epi32(3), ap)};
  for (int64_t r = 0; r < kMr; ++r)
    acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(bz, ar[r]));
}

/// 4×16 i32 tile at AVX-512 width: one zmm of i32 accumulators per row.
TINCY_AVX512 void avx512_i32(const uint8_t* a, const uint8_t* b, int64_t K,
                             uint32_t* tile) {
  __m512i acc[kMr];
  for (int64_t r = 0; r < kMr; ++r) acc[r] = _mm512_setzero_si512();
  int64_t k = 0;
  for (; k + 2 <= K; k += 2) avx512_kpair(a + k * kMr, b + k * kNr, true, acc);
  if (k < K) avx512_kpair(a + k * kMr, b + k * kNr, false, acc);
  for (int64_t r = 0; r < kMr; ++r)
    _mm512_storeu_si512(tile + r * kNr, acc[r]);
}

#undef TINCY_AVX2
#undef TINCY_AVX512

}  // namespace

LowpTileFn x86_lowp_kernel(Kernel k) {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  static const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw");
  if (k == Kernel::kAvx2 && avx2) return avx2_i32;
  if (k == Kernel::kAvx512 && avx512) return avx512_i32;
  return nullptr;
}

}  // namespace tincy::gemm

#else  // non-x86 or non-GCC-compatible build: variant unavailable

namespace tincy::gemm {
LowpTileFn x86_lowp_kernel(Kernel) { return nullptr; }
}  // namespace tincy::gemm

#endif
