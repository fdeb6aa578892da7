#include "gemm/bitserial.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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

/// ORs the `nw`-word bit string `src` into `dst` at bit offset `off`.
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

struct Im2colCtx {
  const uint8_t* image;
  const ConvGeometry* g;
  int bits;
  int64_t cw;  ///< words per pixel channel plane
  uint64_t* pix;
  uint64_t* planes;
};

/// Pixel planes of image rows [lo, hi): pix[(p·bits + b)·cw + c/64].
/// Each word gathers its 64 channels of one pixel in registers and is
/// stored once. Eight pixels go together: one 8-byte read per channel
/// covers them, and an 8 × 8 bit transpose per plane moves 64 bits at a
/// time.
void pixel_planes(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<Im2colCtx*>(p);
  const ConvGeometry& g = *ctx.g;
  const int64_t hw = g.in_height * g.in_width, stride = ctx.bits * ctx.cw;
  const int64_t p0 = lo * g.in_width, p1 = hi * g.in_width;
  constexpr uint64_t kByteLsb = 0x0101010101010101;
  for (int64_t wi = 0; wi < ctx.cw; ++wi) {
    const int64_t c0 = wi * 64;
    const int64_t n = std::min<int64_t>(64, g.in_channels - c0);
    const uint8_t* image = ctx.image + c0 * hw;
    int64_t q = p0;
    for (; q + 8 <= p1; q += 8) {
      uint64_t w[8][8] = {};  // [pixel][plane]
      for (int64_t c = 0; c < n; c += 8) {
        const int64_t m = std::min<int64_t>(8, n - c);
        uint64_t z[8] = {};  // [plane]: byte k = 8 channels of pixel q + k
        for (int64_t j = 0; j < m; ++j) {
          const uint8_t* codes = image + (c + j) * hw + q;
          uint64_t x = 0;  // byte k: the code of pixel q + k
          for (int k = 0; k < 8; ++k) x |= uint64_t{codes[k]} << (8 * k);
          for (int b = 0; b < ctx.bits; ++b)
            z[b] |= ((x >> b) & kByteLsb) << j;
        }
        for (int b = 0; b < ctx.bits; ++b)
          for (int k = 0; k < 8; ++k)
            w[k][b] |= ((z[b] >> (8 * k)) & 0xff) << c;
      }
      for (int k = 0; k < 8; ++k)
        for (int b = 0; b < ctx.bits; ++b)
          ctx.pix[(q + k) * stride + b * ctx.cw + wi] = w[k][b];
    }
    for (; q < p1; ++q) {
      uint64_t w[8] = {};
      for (int64_t c = 0; c < n; ++c)
        for (int b = 0; b < ctx.bits; ++b)  // branch-free: codes are random
          w[b] |= ((uint64_t{image[c * hw + q]} >> b) & 1u) << c;
      for (int b = 0; b < ctx.bits; ++b)
        ctx.pix[q * stride + b * ctx.cw + wi] = w[b];
    }
  }
}

/// Packed columns of output rows [lo, hi).
void patch_columns(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<Im2colCtx*>(p);
  const ConvGeometry& g = *ctx.g;
  const int64_t words = bitplane_words(g.patch_size());
  const int64_t col_words = ctx.bits * words;
  const int64_t pix_stride = ctx.bits * ctx.cw;
  const int64_t out_w = g.out_width();
  for (int64_t oh = lo; oh < hi; ++oh)
    for (int64_t ow = 0; ow < out_w; ++ow) {
      uint64_t* col = ctx.planes + (oh * out_w + ow) * col_words;
      std::memset(col, 0, static_cast<size_t>(col_words) * sizeof(uint64_t));
      for (int64_t kh = 0; kh < g.kernel; ++kh) {
        const int64_t ih = oh * g.stride - g.pad + kh;
        if (ih < 0 || ih >= g.in_height) continue;
        for (int64_t kw = 0; kw < g.kernel; ++kw) {
          const int64_t iw = ow * g.stride - g.pad + kw;
          if (iw < 0 || iw >= g.in_width) continue;
          const int64_t off = (kh * g.kernel + kw) * g.in_channels;
          const uint64_t* px = ctx.pix + (ih * g.in_width + iw) * pix_stride;
          for (int b = 0; b < ctx.bits; ++b)
            or_bits(col + b * words, off, px + b * ctx.cw, ctx.cw);
        }
      }
    }
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

void im2col_bitplanes(const uint8_t* image, const ConvGeometry& g, int bits,
                      uint64_t* planes) {
  TINCY_CHECK_MSG(bits >= 1 && bits <= 8, "bits " << bits);
  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  const int64_t cw = bitplane_words(g.in_channels);
  Im2colCtx ctx{image, &g, bits, cw,
                arena.alloc<uint64_t>(g.in_height * g.in_width * bits * cw),
                planes};
  // Both passes are memory-bound and cheap per element; shard by rows
  // only for maps worth the hand-off.
  core::ThreadPool& pool = core::ThreadPool::shared();
  const bool shard = g.in_channels * g.in_height * g.in_width >= (1 << 16);
  const int64_t chunks = shard ? pool.threads() : 1;
  pool.parallel_for(0, g.in_height, chunks, pixel_planes, &ctx);
  pool.parallel_for(0, g.out_height(), chunks, patch_columns, &ctx);
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
