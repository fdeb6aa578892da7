#include "gemm/layout.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tincy::gemm {

namespace {

#if defined(__SSE2__)
/// A full 16 × 16 byte tile in registers: four unpack rounds, each
/// doubling the run of one column's bytes (1 → 2 → 4 → 8 → 16 rows).
void transpose_16x16(const uint8_t* src, int64_t src_stride, uint8_t* dst,
                     int64_t dst_stride) {
  __m128i x[16], t[16];
  for (int i = 0; i < 16; ++i)
    x[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i * src_stride));
  // t[2i], t[2i+1]: rows 2i, 2i+1 interleaved, columns 0–7 and 8–15.
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm_unpacklo_epi8(x[2 * i], x[2 * i + 1]);
    t[2 * i + 1] = _mm_unpackhi_epi8(x[2 * i], x[2 * i + 1]);
  }
  // x[4i + q]: rows 4i … 4i+3, columns 4q … 4q+3.
  for (int i = 0; i < 4; ++i) {
    x[4 * i] = _mm_unpacklo_epi16(t[4 * i], t[4 * i + 2]);
    x[4 * i + 1] = _mm_unpackhi_epi16(t[4 * i], t[4 * i + 2]);
    x[4 * i + 2] = _mm_unpacklo_epi16(t[4 * i + 1], t[4 * i + 3]);
    x[4 * i + 3] = _mm_unpackhi_epi16(t[4 * i + 1], t[4 * i + 3]);
  }
  // t[8i + m]: rows 8i … 8i+7, columns 2m and 2m + 1.
  for (int i = 0; i < 2; ++i)
    for (int q = 0; q < 4; ++q) {
      t[8 * i + 2 * q] = _mm_unpacklo_epi32(x[8 * i + q], x[8 * i + 4 + q]);
      t[8 * i + 2 * q + 1] = _mm_unpackhi_epi32(x[8 * i + q], x[8 * i + 4 + q]);
    }
  // Column k = all 16 rows.
  for (int m = 0; m < 8; ++m) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * m * dst_stride),
                     _mm_unpacklo_epi64(t[m], t[8 + m]));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + (2 * m + 1) * dst_stride),
        _mm_unpackhi_epi64(t[m], t[8 + m]));
  }
}
#endif

/// out (cols × rows) = in (rows × cols)ᵀ, tile by tile.
void transpose_bytes(const uint8_t* in, int64_t rows, int64_t cols,
                     uint8_t* out) {
  constexpr int64_t T = kLayoutTile;
  for (int64_t r0 = 0; r0 < rows; r0 += T) {
    const int64_t rn = std::min(T, rows - r0);
    for (int64_t c0 = 0; c0 < cols; c0 += T)
      transpose_tile(in + r0 * cols + c0, cols, rn, std::min(T, cols - c0),
                     out + c0 * rows + r0, rows);
  }
}

}  // namespace

void transpose_tile(const uint8_t* src, int64_t src_stride, int64_t rows,
                    int64_t cols, uint8_t* dst, int64_t dst_stride) {
#if defined(__SSE2__)
  static_assert(kLayoutTile == 16);
  if (rows == 16 && cols == 16)
    return transpose_16x16(src, src_stride, dst, dst_stride);
#endif
  for (int64_t j = 0; j < cols; ++j)
    for (int64_t i = 0; i < rows; ++i)
      dst[j * dst_stride + i] = src[i * src_stride + j];
}

void chw_to_hwc(const uint8_t* in, int64_t channels, int64_t pixels,
                uint8_t* out) {
  transpose_bytes(in, channels, pixels, out);
}

void hwc_to_chw(const uint8_t* in, int64_t channels, int64_t pixels,
                uint8_t* out) {
  transpose_bytes(in, pixels, channels, out);
}

void quantize_to_hwc(const quant::CodeGrid& g, const float* in,
                     int64_t channels, int64_t pixels, uint8_t* codes) {
  if (g.bipolar)
    chw_to_hwc(in, channels, pixels, codes,
               [q = quant::BipolarActQuant{g.scale}](float x) {
                 return q.quantize(x);
               });
  else
    chw_to_hwc(in, channels, pixels, codes,
               [q = quant::UniformActQuant{g.bits, g.scale}](float x) {
                 return q.quantize(x);
               });
}

void dequantize_to_chw(const quant::CodeGrid& g, const uint8_t* codes,
                       int64_t channels, int64_t pixels, float* out) {
  if (g.bipolar)
    hwc_to_chw(codes, channels, pixels, out,
               [q = quant::BipolarActQuant{g.scale}](uint8_t c) {
                 return q.dequantize(c);
               });
  else
    hwc_to_chw(codes, channels, pixels, out,
               [q = quant::UniformActQuant{g.bits, g.scale}](uint8_t c) {
                 return q.dequantize(c);
               });
}

}  // namespace tincy::gemm
