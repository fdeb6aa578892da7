#include "gemm/bitserial.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/errors.hpp"
#include "core/thread_pool.hpp"
#include "gemm/scratch.hpp"

namespace tincy::gemm {

namespace {

/// Columns per epilogue block (bounds the per-thread accumulator tile).
constexpr int64_t kMaxBlockColumns = 16;
/// Popcount words below which a call runs on the calling thread alone.
constexpr int64_t kMinWordsToShard = int64_t{1} << 17;

/// Copies a Darknet-ordered row (bit c·taps + t) into channel-major
/// order (bit t·C + c), filling `dst` word by word.
void pack_row(const BitVector& src, int64_t taps, uint64_t* dst) {
  const std::vector<uint64_t>& sw = src.words();
  if (taps == 1) {
    std::copy(sw.begin(), sw.end(), dst);
    return;
  }
  uint64_t word = 0;
  int64_t d = 0;
  for (int64_t t = 0; t < taps; ++t)
    for (int64_t k = t; k < src.size(); k += taps, ++d) {
      word |= ((sw[static_cast<size_t>(k >> 6)] >> (k & 63)) & 1) << (d & 63);
      if ((d & 63) == 63) {
        dst[d >> 6] = word;
        word = 0;
      }
    }
  if (d & 63) dst[d >> 6] = word;
}

/// Packs row r of a Darknet-ordered bit matrix into the interleaved
/// plane `dst` (padded rows are never written, so they stay zero).
/// Returns the row's set-bit count.
int64_t pack_interleaved(const BitVector& src, int64_t r, int64_t taps,
                         int64_t words, std::vector<uint64_t>& row,
                         uint64_t* dst) {
  std::fill(row.begin(), row.end(), 0);
  pack_row(src, taps, row.data());
  int64_t count = 0;
  for (int64_t i = 0; i < words; ++i) {
    const uint64_t word = row[static_cast<size_t>(i)];
    dst[BitSerialWeights::index(r, i, words)] = word;
    count += std::popcount(word);
  }
  return count;
}

BitSerialWeights empty_pack(int64_t rows, int64_t cols, int64_t kernel) {
  TINCY_CHECK_MSG(kernel >= 1 && cols % (kernel * kernel) == 0,
                  cols << " columns for a " << kernel << "x" << kernel
                       << " kernel");
  BitSerialWeights p;
  p.rows = rows;
  p.cols = cols;
  p.words = bitplane_words(cols);
  p.positive.assign(
      static_cast<size_t>(p.groups() * p.words * kBitSerialGroupRows), 0);
  p.positive_count.resize(static_cast<size_t>(rows));
  return p;
}

/// ORs the `nw`-word bit string `src` into `dst` at bit offset `off` (the
/// im2col's field store when C neither divides 64 nor is a multiple of 64).
/// Bits of `src` past its length are zero, so a spill into the next
/// word only happens when that word is still inside the patch.
inline void or_bits(uint64_t* dst, int64_t off, const uint64_t* src,
                    int64_t nw) {
  uint64_t* d = dst + (off >> 6);
  const int s = static_cast<int>(off & 63);
  for (int64_t i = 0; i < nw; ++i) {
    d[i] |= src[i] << s;
    if (s != 0 && (src[i] >> (64 - s)) != 0) d[i + 1] |= src[i] >> (64 - s);
  }
}

constexpr uint64_t kByteLsb = 0x0101010101010101;

/// Bit 0 of each of x's 8 bytes, gathered into bits 0–7: byte k's bit
/// lands at bit 56 + k of the product, and no two partial products meet.
inline uint64_t byte_lsbs(uint64_t x) {
  return ((x & kByteLsb) * 0x0102040810204080) >> 56;
}

/// The planes of `n` <= 64 − base channel codes, 8 at a time through
/// byte_lsbs (the last 8 may be partial): w[b] |= bit b of code c, at bit
/// base + c.
inline void gather_planes_portable(const uint8_t* codes, int64_t n, int bits,
                                   int64_t base, uint64_t* w) {
  for (int64_t c = 0; c < n; c += 8) {
    uint64_t x = 0;  // byte k: the code of channel c + k
    for (int64_t k = 0; k < std::min<int64_t>(8, n - c); ++k)
      x |= uint64_t{codes[c + k]} << (8 * k);
    for (int b = 0; b < bits; ++b) w[b] |= byte_lsbs(x >> b) << (base + c);
  }
}

/// Where pixel planes go: word wi of pixel q's plane b at byte
/// q·pixel_bytes + b·plane_bytes + 8·wi of `base`. Words are stored one
/// by one, pixels in order, so a word whose upper bytes spill into the
/// next pixel's field (row runs, pixel_bytes < 8·cw) is overwritten by it.
struct PlaneStore {
  unsigned char* base;
  int64_t plane_bytes;
  int64_t pixel_bytes;

  void put(int64_t q, int b, int64_t wi, uint64_t w) const {
    std::memcpy(base + q * pixel_bytes + b * plane_bytes + 8 * wi, &w,
                sizeof w);
  }
};

/// Pixel planes of `count` pixels: bit b of pixel q's channels. The image
/// is HWC, so a pixel's channels are one contiguous run of bytes, read
/// once for all planes.
void pixel_planes_portable(const uint8_t* image, int64_t count, int64_t C,
                           int bits, const PlaneStore& out) {
  const int64_t cw = bitplane_words(C);
  for (int64_t q = 0; q < count; ++q) {
    const uint8_t* px = image + q * C;
    for (int64_t wi = 0; wi < cw; ++wi) {
      uint64_t w[8] = {};
      gather_planes_portable(px + wi * 64, std::min<int64_t>(64, C - wi * 64),
                             bits, 0, w);
      for (int b = 0; b < bits; ++b) out.put(q, b, wi, w[b]);
    }
  }
}

// The gather is shift-plus-movemask bound: one 32- or 16-channel load per
// pixel, then per plane a shift that brings bit b to each byte's top and
// a movemask that packs those tops, so it is also built for AVX2 and
// picked when cpuid has it (as the threshold epilogue is).
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
__attribute__((target("avx2"))) void pixel_planes_avx2(
    const uint8_t* image, int64_t count, int64_t C, int bits,
    const PlaneStore& out) {
  const int64_t cw = bitplane_words(C);
  for (int64_t q = 0; q < count; ++q) {
    const uint8_t* px = image + q * C;
    for (int64_t wi = 0; wi < cw; ++wi) {
      const uint8_t* codes = px + wi * 64;
      const int64_t n = std::min<int64_t>(64, C - wi * 64);
      uint64_t w[8] = {};
      int64_t c = 0;
      for (; c + 32 <= n; c += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + c));
        for (int b = 0; b < bits; ++b) {
          const __m256i top = _mm256_sll_epi16(v, _mm_cvtsi32_si128(7 - b));
          w[b] |= uint64_t{static_cast<uint32_t>(_mm256_movemask_epi8(top))}
                  << c;
        }
      }
      for (; c + 16 <= n; c += 16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + c));
        for (int b = 0; b < bits; ++b) {
          const __m128i top = _mm_sll_epi16(v, _mm_cvtsi32_si128(7 - b));
          w[b] |= uint64_t{static_cast<uint32_t>(_mm_movemask_epi8(top))} << c;
        }
      }
      gather_planes_portable(codes + c, n - c, bits, c, w);
      for (int b = 0; b < bits; ++b) out.put(q, b, wi, w[b]);
    }
  }
}
#endif

void pixel_planes_to(const uint8_t* image, int64_t count, int64_t C, int bits,
                     const PlaneStore& out) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2) return pixel_planes_avx2(image, count, C, bits, out);
#endif
  pixel_planes_portable(image, count, C, bits, out);
}

/// Pixel planes as row runs (C a multiple of 8): per input row and plane,
/// the row's C-bit fields side by side as bytes, with the conv's `pad`
/// zero pixels on each side and 8 bytes of slack, so a kernel row of a
/// patch, K taps, is one K·C-bit window of a run, and a 64-bit load at
/// any byte of it stays inside.
struct RowRuns {
  int64_t field_bytes;  ///< C / 8
  int64_t words;        ///< per run

  explicit RowRuns(const ConvGeometry& g)
      : field_bytes(g.in_channels / 8),
        words(((g.in_width + 2 * g.pad) * field_bytes + 8 + 7) / 8) {}
};

/// Kernel rows of up to this many taps keep their row pointers in
/// registers; a taller kernel keeps per-pixel planes.
constexpr int64_t kMaxRunKernel = 16;

/// Whether `g`'s pixel planes are row runs: C a multiple of 8 (and a
/// kernel no taller than kMaxRunKernel).
bool row_runs(const ConvGeometry& g) {
  return g.in_channels % 8 == 0 && g.kernel <= kMaxRunKernel;
}

/// Appends bit strings to a column plane, a word at a time.
struct BitAppender {
  uint64_t* out;
  uint64_t word = 0;
  int fill = 0;

  /// The low `n` bits of v (1 <= n <= 64; the bits above are zero).
  void put(uint64_t v, int n) {
    word |= v << fill;
    if (fill + n >= 64) {
      *out++ = word;
      word = fill != 0 ? v >> (64 - fill) : 0;
      fill += n - 64;
    } else {
      fill += n;
    }
  }
  void flush() {
    if (fill != 0) *out++ = word;
  }
};

/// Columns of output positions [j0, j1) from row runs: per plane, kernel
/// row kh is its input row's run from the window's first tap on (padding
/// pixels included), or zeros for a padding row, at bit kh·K·C of the
/// column. A window of whole words is copied word by word; any other is
/// appended 64 bits at a time.
template <int kBits>
void patch_columns_runs(const uint64_t* const pix, int64_t pix_row0,
                        const ConvGeometry g, const int bits_arg, int64_t j0,
                        int64_t j1, uint64_t* const planes) {
  const int bits = kBits > 0 ? kBits : bits_arg;
  const RowRuns runs(g);
  const int64_t words = bitplane_words(g.patch_size());
  const int64_t col_words = bits * words, window = g.kernel * g.in_channels;
  const int64_t run_bytes = runs.words * 8, out_w = g.out_width();
  const auto* base = reinterpret_cast<const unsigned char*>(pix);
  int64_t oh = j0 / out_w, ow = j0 % out_w;
  const unsigned char* rows[kMaxRunKernel];
  for (int64_t j = j0; j < j1; ++j) {
    uint64_t* col = planes + (j - j0) * col_words;
    const int64_t first = ow * g.stride * runs.field_bytes;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      const int64_t ih = oh * g.stride - g.pad + kh;
      rows[kh] = ih >= 0 && ih < g.in_height
                     ? base + (ih - pix_row0) * bits * run_bytes + first
                     : nullptr;
    }
    if (window % 64 == 0) {
      const int64_t n = window / 64;
      for (int b = 0; b < bits; ++b)
        for (int64_t kh = 0; kh < g.kernel; ++kh) {
          uint64_t* dst = col + b * words + kh * n;
          if (rows[kh] == nullptr)
            std::fill(dst, dst + n, uint64_t{0});
          else
            std::memcpy(dst, rows[kh] + b * run_bytes,
                        static_cast<size_t>(8 * n));
        }
    } else if (window < 64) {  // each kernel row is one masked load
      const uint64_t mask = (uint64_t{1} << window) - 1;
      const int n = static_cast<int>(window);
      for (int b = 0; b < bits; ++b) {
        BitAppender out{col + b * words};
        for (int64_t kh = 0; kh < g.kernel; ++kh) {
          uint64_t v = 0;
          if (rows[kh] != nullptr)
            std::memcpy(&v, rows[kh] + b * run_bytes, sizeof v);
          out.put(v & mask, n);
        }
        out.flush();
      }
    } else {
      for (int b = 0; b < bits; ++b) {
        BitAppender out{col + b * words};
        for (int64_t kh = 0; kh < g.kernel; ++kh)
          for (int64_t k = 0; k < window; k += 64) {
            const int n = static_cast<int>(std::min<int64_t>(64, window - k));
            uint64_t v = 0;
            if (rows[kh] != nullptr) {
              std::memcpy(&v, rows[kh] + b * run_bytes + k / 8, sizeof v);
              if (n < 64) v &= (uint64_t{1} << n) - 1;
            }
            out.put(v, n);
          }
        out.flush();
      }
    }
    if (++ow == out_w) {
      ow = 0;
      ++oh;
    }
  }
}

/// How a pixel's C-bit channel field goes into a patch column when the
/// planes are per pixel, not row runs; the field of tap t starts at bit
/// t·C.
enum class FieldStore {
  kPacked,  ///< C divides 64: fields never straddle a word, so each plane
            ///< word is assembled from 64/C fields in a register
  kBits,    ///< any other C: each field is ORed in at its bit offset
};

/// Packed columns of output positions [j0, j1) from per-pixel planes.
/// Each tap's pixel is located once and its `bits` plane fields stored
/// together. The kPacked store writes every word of a column, padding
/// taps as zero fields, so only kBits clears the column first.
template <FieldStore kStore>
void patch_columns_impl(const uint64_t* const pix, int64_t pix_row0,
                        const ConvGeometry g, const int bits, int64_t j0,
                        int64_t j1, uint64_t* const planes) {
  // Parameters by value: the column stores are uint64_t, which may alias
  // the int64_t geometry, so fields read through a pointer would be
  // reloaded after each.
  const int64_t words = bitplane_words(g.patch_size());
  const int64_t col_words = bits * words;
  const int64_t cw = bitplane_words(g.in_channels);
  const int64_t pix_stride = bits * cw;
  const int64_t out_w = g.out_width(), C = g.in_channels;
  int64_t oh = j0 / out_w, ow = j0 % out_w;
  for (int64_t j = j0; j < j1; ++j) {
    uint64_t* col = planes + (j - j0) * col_words;
    if constexpr (kStore == FieldStore::kBits)
      std::fill(col, col + col_words, uint64_t{0});
    uint64_t word[8] = {};  // kPacked: the plane words being assembled
    int64_t shift = 0, wi = 0;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      const int64_t ih = oh * g.stride - g.pad + kh;
      const bool row_in = ih >= 0 && ih < g.in_height;
      for (int64_t kw = 0; kw < g.kernel; ++kw) {
        const int64_t iw = ow * g.stride - g.pad + kw;
        const uint64_t* px =
            row_in && iw >= 0 && iw < g.in_width
                ? pix + ((ih - pix_row0) * g.in_width + iw) * pix_stride
                : nullptr;
        if constexpr (kStore == FieldStore::kPacked) {
          if (px != nullptr)
            for (int b = 0; b < bits; ++b) word[b] |= px[b] << shift;
          shift += C;
          if (shift == 64) {
            for (int b = 0; b < bits; ++b) {
              col[b * words + wi] = word[b];
              word[b] = 0;
            }
            shift = 0;
            ++wi;
          }
        } else if (px != nullptr) {
          for (int b = 0; b < bits; ++b)
            or_bits(col + b * words, (kh * g.kernel + kw) * C, px + b * cw,
                    cw);
        }
      }
    }
    if constexpr (kStore == FieldStore::kPacked)
      if (shift != 0)
        for (int b = 0; b < bits; ++b) col[b * words + wi] = word[b];
    if (++ow == out_w) {
      ow = 0;
      ++oh;
    }
  }
}

/// im2col_bitplanes' two passes, sharded by rows.
struct Im2colCtx {
  const uint8_t* image;
  const ConvGeometry* g;
  int bits;
  uint64_t* pix;
  uint64_t* planes;
};

void pixel_plane_rows(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<Im2colCtx*>(p);
  pixel_planes(ctx.image, *ctx.g, ctx.bits, lo, hi,
               ctx.pix + pixel_plane_words(*ctx.g, ctx.bits, lo));
}

void patch_column_rows(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<Im2colCtx*>(p);
  const ConvGeometry& g = *ctx.g;
  const int64_t out_w = g.out_width();
  patch_columns(ctx.pix, 0, g, ctx.bits, lo * out_w, hi * out_w,
                ctx.planes + lo * out_w * ctx.bits *
                                 bitplane_words(g.patch_size()));
}

struct GemmCtx {
  BitSerialTileArgs args;
  const uint64_t* planes;
  int64_t n;
  int64_t block;  ///< columns per epilogue block
  BitSerialFn fn;
  const BitSerialEpilogue* epilogue;
};

/// Runs column blocks [lo, hi) and hands each block to the epilogue.
void gemm_blocks(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<GemmCtx*>(p);
  const int64_t col_words = ctx.args.bits * ctx.args.words;
  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  int32_t* acc = arena.alloc<int32_t>(ctx.block * ctx.args.rows);
  for (int64_t blk = lo; blk < hi; ++blk) {
    const int64_t j0 = blk * ctx.block;
    const int64_t count = std::min(ctx.block, ctx.n - j0);
    ctx.fn(ctx.args, ctx.planes + j0 * col_words, count, acc);
    (*ctx.epilogue)(j0, count, acc);
  }
}

}  // namespace

BitSerialWeights pack_bitserial(const quant::BinaryMatrix& m, int64_t kernel) {
  BitSerialWeights p = empty_pack(m.rows, m.cols, kernel);
  std::vector<uint64_t> row(static_cast<size_t>(p.words));
  for (int64_t r = 0; r < m.rows; ++r)
    p.positive_count[static_cast<size_t>(r)] =
        pack_interleaved(m.row_bits[static_cast<size_t>(r)], r,
                         kernel * kernel, p.words, row, p.positive.data());
  return p;
}

BitSerialWeights pack_bitserial(const quant::TernaryMatrix& m,
                                int64_t kernel) {
  BitSerialWeights p = empty_pack(m.rows, m.cols, kernel);
  p.nonzero.assign(p.positive.size(), 0);
  std::vector<uint64_t> row(static_cast<size_t>(p.words));
  for (int64_t r = 0; r < m.rows; ++r) {
    p.positive_count[static_cast<size_t>(r)] =
        pack_interleaved(m.positive[static_cast<size_t>(r)], r,
                         kernel * kernel, p.words, row, p.positive.data());
    pack_interleaved(m.nonzero[static_cast<size_t>(r)], r, kernel * kernel,
                     p.words, row, p.nonzero.data());
  }
  return p;
}

int64_t pixel_plane_words(const ConvGeometry& g, int bits, int64_t rows) {
  if (row_runs(g)) return rows * bits * RowRuns(g).words;
  return rows * g.in_width * bits * bitplane_words(g.in_channels);
}

void pixel_planes(const uint8_t* image, const ConvGeometry& g, int bits,
                  int64_t row_lo, int64_t row_hi, uint64_t* pix) {
  const int64_t C = g.in_channels, cw = bitplane_words(C);
  auto* out = reinterpret_cast<unsigned char*>(pix);
  if (!row_runs(g))
    return pixel_planes_to(image + row_lo * g.in_width * C,
                           (row_hi - row_lo) * g.in_width, C, bits,
                           {out, 8 * cw, 8 * bits * cw});
  const RowRuns runs(g);
  const int64_t run_bytes = runs.words * 8, fb = runs.field_bytes;
  const int64_t left = g.pad * fb, end = left + g.in_width * fb;
  for (int64_t ih = row_lo; ih < row_hi; ++ih) {
    unsigned char* row = out + (ih - row_lo) * bits * run_bytes;
    for (int b = 0; b < bits; ++b)
      std::memset(row + b * run_bytes, 0, static_cast<size_t>(left));
    pixel_planes_to(image + ih * g.in_width * C, g.in_width, C, bits,
                    {row + left, run_bytes, fb});
    // The last field's word spilled zeros past `end`; clear the rest.
    for (int b = 0; b < bits; ++b)
      std::memset(row + b * run_bytes + end, 0,
                  static_cast<size_t>(run_bytes - end));
  }
}

void patch_columns(const uint64_t* pix, int64_t pix_row0,
                   const ConvGeometry& g, int bits, int64_t j0, int64_t j1,
                   uint64_t* planes) {
  if (row_runs(g))  // 3-bit codes, the paper's A3, unrolled
    return bits == 3
               ? patch_columns_runs<3>(pix, pix_row0, g, bits, j0, j1, planes)
               : patch_columns_runs<0>(pix, pix_row0, g, bits, j0, j1, planes);
  if (64 % g.in_channels == 0)
    return patch_columns_impl<FieldStore::kPacked>(pix, pix_row0, g, bits, j0,
                                                   j1, planes);
  patch_columns_impl<FieldStore::kBits>(pix, pix_row0, g, bits, j0, j1,
                                        planes);
}

void im2col_bitplanes(const uint8_t* image, const ConvGeometry& g, int bits,
                      uint64_t* planes) {
  TINCY_CHECK_MSG(bits >= 1 && bits <= 8, "bits " << bits);
  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  Im2colCtx ctx{image, &g, bits,
                arena.alloc<uint64_t>(pixel_plane_words(g, bits, g.in_height)),
                planes};
  // Both passes are memory-bound and cheap per element; shard by rows
  // only for maps worth the hand-off.
  core::ThreadPool& pool = core::ThreadPool::shared();
  const bool shard = g.in_channels * g.in_height * g.in_width >= (1 << 16);
  const int64_t chunks = shard ? pool.threads() : 1;
  pool.parallel_for(0, g.in_height, chunks, pixel_plane_rows, &ctx);
  pool.parallel_for(0, g.out_height(), chunks, patch_column_rows, &ctx);
}

BitSerialTileArgs tile_args(const BitSerialWeights& w, int bits, bool bipolar,
                            int64_t* row_bias) {
  BitSerialTileArgs a;
  a.positive = w.positive.data();
  a.nonzero = w.ternary() ? w.nonzero.data() : nullptr;
  a.rows = w.rows;
  a.words = w.words;
  a.bits = bits;
  if (w.ternary()) {
    a.shift = 0;  // T already holds 2·S(positive) − S(nonzero)
  } else if (!bipolar) {
    a.shift = 1;
    a.col_scale = -1;
  } else {
    TINCY_CHECK(row_bias != nullptr);
    a.shift = 2;
    a.col_base = w.cols;
    a.col_scale = -2;
    const int64_t padded = w.groups() * kBitSerialGroupRows;
    for (int64_t r = 0; r < padded; ++r)
      row_bias[r] =
          r < w.rows ? -2 * w.positive_count[static_cast<size_t>(r)] : 0;
    a.row_bias = row_bias;
  }
  return a;
}

BitSerialTileArgs slice_groups(const BitSerialTileArgs& a, int64_t g0,
                               int64_t g1) {
  BitSerialTileArgs s = a;
  const int64_t first = g0 * kBitSerialGroupRows;
  s.positive += first * a.words;
  if (a.nonzero) s.nonzero += first * a.words;
  if (a.row_bias) s.row_bias += first;
  s.rows = std::min(a.rows, g1 * kBitSerialGroupRows) - first;
  return s;
}

void bitserial_gemm(const BitSerialWeights& w, const uint64_t* planes,
                    int64_t n, int bits, bool bipolar,
                    const BitSerialEpilogue& epilogue,
                    PopcountKernel kernel) {
  TINCY_CHECK_MSG(bits >= 1 && bits <= 8, "bits " << bits);
  TINCY_CHECK_MSG(!bipolar || (bits == 1 && !w.ternary()),
                  "bipolar codes need 1-bit activations and binary weights");
  if (n <= 0) return;
  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  const BitSerialTileArgs args = tile_args(
      w, bits, bipolar,
      bipolar ? arena.alloc<int64_t>(w.groups() * kBitSerialGroupRows)
              : nullptr);
  core::ThreadPool& pool = core::ThreadPool::shared();
  const int64_t work = w.rows * n * bits * w.words * (w.ternary() ? 2 : 1);
  const int64_t shards = work >= kMinWordsToShard ? pool.threads() : 1;
  // Small n (a gang of a few frames) still splits into a few blocks per
  // shard so every thread gets columns.
  const int64_t block =
      std::clamp<int64_t>((n + 4 * shards - 1) / (4 * shards), 1,
                          kMaxBlockColumns);
  GemmCtx ctx{args, planes, n, block,
              bitserial_kernel(resolve_kernel(kernel)), &epilogue};
  // A block of a shallow layer is about a microsecond of work (layer 1:
  // 16 columns × 64 rows × 144 bits), so blocks are claimed in runs of
  // blocks / (8 · shards): a claim takes the pool's mutex.
  const int64_t blocks = (n + block - 1) / block;
  pool.parallel_for(0, blocks, shards == 1 ? 1 : std::min(blocks, 8 * shards),
                    gemm_blocks, &ctx);
}

void bitserial_gemm_reference(const int8_t* w, int64_t rows, int64_t cols,
                              const uint8_t* codes, int64_t n, bool bipolar,
                              int32_t* acc) {
  for (int64_t j = 0; j < n; ++j)
    for (int64_t r = 0; r < rows; ++r) {
      int32_t sum = 0;
      for (int64_t k = 0; k < cols; ++k) {
        const uint8_t code = codes[j * cols + k];
        const int32_t x = bipolar ? (code ? 1 : -1) : code;
        sum += w[r * cols + k] * x;
      }
      acc[j * rows + r] = sum;
    }
}

}  // namespace tincy::gemm
