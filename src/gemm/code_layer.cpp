#include "gemm/code_layer.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <tuple>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#define TINCY_X86_DISPATCH 1
#endif

#include "core/errors.hpp"
#include "core/thread_pool.hpp"
#include "gemm/scratch.hpp"

namespace tincy::gemm {

namespace {

/// Accumulator columns `count` × channels [c0, c0 + nc) of one threshold
/// step: channel c of column jj is acc[jj·acc_stride + c − c0], and its
/// code goes to level[jj·level_stride + c − c0].
struct ThresholdBlock {
  const ThresholdTable* table;
  int64_t c0, nc;
  const int32_t* acc;
  int64_t acc_stride;
  int64_t count;
  uint8_t* level;
  int64_t level_stride;
};

/// Output levels of `Lanes` adjacent channels of one accumulator column.
template <int64_t Lanes>
inline void count_levels(const int32_t* acc, const int32_t* flip,
                         const int32_t* thresholds, int64_t levels,
                         int64_t channels, uint8_t* level) {
  int32_t x[Lanes], count[Lanes] = {};
  for (int64_t i = 0; i < Lanes; ++i) x[i] = acc[i] ^ flip[i];
  for (int64_t k = 0; k < levels; ++k)
    for (int64_t i = 0; i < Lanes; ++i)
      count[i] += x[i] >= thresholds[k * channels + i];
  for (int64_t i = 0; i < Lanes; ++i) level[i] = static_cast<uint8_t>(count[i]);
}

/// The int32 threshold step, 16 channels at a time. Inlined into one
/// function per ISA.
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void threshold_wide_body(const ThresholdBlock& b) {
  constexpr int64_t kLanes = 16;
  const ThresholdTable& t = *b.table;
  const int32_t* thresholds = t.thresholds.data() + b.c0;
  const int32_t* flip = t.flip.data() + b.c0;
  for (int64_t jj = 0; jj < b.count; ++jj) {
    const int32_t* a = b.acc + jj * b.acc_stride;
    uint8_t* lv = b.level + jj * b.level_stride;
    int64_t c = 0;
    for (; c + kLanes <= b.nc; c += kLanes)
      count_levels<kLanes>(a + c, flip + c, thresholds + c, t.levels,
                           t.channels, lv + c);
    for (; c < b.nc; ++c)
      count_levels<1>(a + c, flip + c, thresholds + c, t.levels, t.channels,
                      lv + c);
  }
}

#if TINCY_X86_DISPATCH
// The threshold step is compare-bound, so the int32 body is also built for
// AVX2 (as the packed GEMM's kernels_avx2.cpp is) and picked when cpuid
// has it.
__attribute__((target("avx2"))) void threshold_wide_avx2(
    const ThresholdBlock& b) {
  threshold_wide_body(b);
}

/// The int16 threshold step (ThresholdTable::narrow), 32 channels per zmm:
/// each column's accumulators are flipped and narrowed (exact: they fit),
/// and every level is one compare into a mask that bumps the byte counts.
/// kLevels > 0 fixes the level count, so a chunk's thresholds stay in
/// registers across the block's columns.
template <int64_t kLevels>
__attribute__((target("avx512f,avx512bw,avx512vl"), always_inline)) inline void
threshold_narrow_body(const ThresholdBlock& b) {
  const int64_t levels = kLevels > 0 ? kLevels : b.table->levels;
  const int64_t channels = b.table->channels, count = b.count;
  const int16_t* thresholds = b.table->narrow.data() + b.c0;
  const int32_t* flip = b.table->flip.data() + b.c0;
  const int32_t* acc = b.acc;
  uint8_t* level = b.level;
  const int64_t acc_stride = b.acc_stride, level_stride = b.level_stride;
  const __m256i one = _mm256_set1_epi8(1);
  const __m512i order = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
  for (int64_t c = 0; c < b.nc; c += 32) {
    const int64_t n = std::min<int64_t>(32, b.nc - c);
    const __mmask32 m = n == 32 ? ~__mmask32{0} : (__mmask32{1} << n) - 1;
    const auto lo = static_cast<__mmask16>(m);
    const auto hi = static_cast<__mmask16>(m >> 16);
    const __m512i flip_lo = _mm512_maskz_loadu_epi32(lo, flip + c);
    const __m512i flip_hi = _mm512_maskz_loadu_epi32(hi, flip + c + 16);
    __m512i th[kLevels > 0 ? kLevels : 1];
    if constexpr (kLevels > 0)
      for (int64_t k = 0; k < kLevels; ++k)
        th[k] = _mm512_maskz_loadu_epi16(m, thresholds + k * channels + c);
    for (int64_t jj = 0; jj < count; ++jj) {
      const int32_t* a = acc + jj * acc_stride + c;
      const __m512i a_lo =
          _mm512_xor_si512(_mm512_maskz_loadu_epi32(lo, a), flip_lo);
      const __m512i a_hi =
          _mm512_xor_si512(_mm512_maskz_loadu_epi32(hi, a + 16), flip_hi);
      // packs works within 128-bit lanes; the permute puts the channels
      // back in order.
      const __m512i x = _mm512_maskz_permutexvar_epi64(
          0xFF, order, _mm512_packs_epi32(a_lo, a_hi));
      __m256i total = _mm256_setzero_si256();
      for (int64_t k = 0; k < levels; ++k) {
        const __m512i t =
            kLevels > 0
                ? th[k]
                : _mm512_maskz_loadu_epi16(m, thresholds + k * channels + c);
        total = _mm256_mask_add_epi8(total, _mm512_cmpge_epi16_mask(x, t),
                                     total, one);
      }
      _mm256_mask_storeu_epi8(level + jj * level_stride + c, m, total);
    }
  }
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
threshold_narrow_avx512(const ThresholdBlock& b) {
  // 3-bit codes, the paper's A3, have 7 levels.
  if (b.table->levels == 7) return threshold_narrow_body<7>(b);
  threshold_narrow_body<0>(b);
}
#endif

/// Whether the int16 step may run: the bound fits and cpuid has AVX-512BW.
bool narrow_threshold(int64_t acc_bound) {
#if TINCY_X86_DISPATCH
  static const bool avx512bw = __builtin_cpu_supports("avx512f") &&
                               __builtin_cpu_supports("avx512bw") &&
                               __builtin_cpu_supports("avx512vl");
  return avx512bw && acc_bound <= kNarrowAccBound;
#else
  (void)acc_bound;
  return false;
#endif
}

void threshold_block(const ThresholdBlock& b, bool narrow) {
#if TINCY_X86_DISPATCH
  if (narrow) return threshold_narrow_avx512(b);
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2) return threshold_wide_avx2(b);
#else
  (void)narrow;
#endif
  threshold_wide_body(b);
}

/// The pools run in fixed-length blocks over restrict pointers, so the
/// bodies vectorise at -O2 (whose cost model leaves byte loops of runtime
/// length scalar).
constexpr int64_t kPoolBlock = 16;

/// o[i] = max of a[i], a[P + i], b[i], b[P + i] for i < n: 2 × 2 windows
/// of HWC pixels P bytes apart (a, b: the top-left and bottom-left taps),
/// one window for n <= P, a stride-1 row of them for longer n.
inline void max_2x2(const uint8_t* __restrict a, const uint8_t* __restrict b,
                    int64_t n, int64_t P, uint8_t* __restrict o) {
  const uint8_t* a1 = a + P;
  const uint8_t* b1 = b + P;
  int64_t i = 0;
  for (; i + kPoolBlock <= n; i += kPoolBlock)
    for (int64_t k = 0; k < kPoolBlock; ++k)
      o[i + k] = std::max(std::max(a[i + k], a1[i + k]),
                          std::max(b[i + k], b1[i + k]));
  for (; i < n; ++i)
    o[i] = std::max(std::max(a[i], a1[i]), std::max(b[i], b1[i]));
}

/// o[c] = max(o[c], tap[c]) over one pixel's channels.
inline void max_into(uint8_t* __restrict o, const uint8_t* __restrict tap,
                     int64_t channels) {
  int64_t c = 0;
  for (; c + kPoolBlock <= channels; c += kPoolBlock)
    for (int64_t k = 0; k < kPoolBlock; ++k)
      o[c + k] = std::max(o[c + k], tap[c + k]);
  for (; c < channels; ++c) o[c] = std::max(o[c], tap[c]);
}

/// Output rows of a pool over HWC pixels with p.channels codes each, read
/// `in_px` and written `out_px` bytes apart: a whole map, or a band's
/// channel slice. `in` holds input rows from `in_row0` on, and `out` is
/// output row 0.
struct PoolRows {
  const PoolGeometry* p;
  const uint8_t* in;
  int64_t in_row0;
  int64_t in_px;
  uint8_t* out;
  int64_t out_px;
};

/// Size 2, stride 1 or 2, output rows [lo, hi). Darknet pads right and
/// bottom: output row oh maxes input rows oh·stride and the next one (the
/// same row again past the last), and a window whose right tap is past
/// the row keeps its left tap. Each run below is contiguous over the
/// channels, so it vectorises.
void pool_rows_size2(const PoolRows& r, int64_t lo, int64_t hi) {
  const PoolGeometry& p = *r.p;
  const int64_t C = p.channels, W = p.in_width, s = p.stride;
  const int64_t out_w = p.out_width(), row = W * r.in_px;
  // Windows [0, full) have both taps in the row.
  const int64_t full = W >= 2 ? std::min(out_w, (W - 2) / s + 1) : 0;
  for (int64_t oh = lo; oh < hi; ++oh) {
    const uint8_t* __restrict r0 = r.in + (oh * s - r.in_row0) * row;
    const uint8_t* __restrict r1 = oh * s + 1 < p.in_height ? r0 + row : r0;
    uint8_t* __restrict o = r.out + oh * out_w * r.out_px;
    if (s == 1 && r.in_px == C && r.out_px == C)
      max_2x2(r0, r1, full * C, C, o);  // out[i], in[i], in[i + C] line up
    else
      for (int64_t ow = 0; ow < full; ++ow)
        max_2x2(r0 + ow * s * r.in_px, r1 + ow * s * r.in_px, C, r.in_px,
                o + ow * r.out_px);
    for (int64_t ow = full; ow < out_w; ++ow) {  // the right tap is padding
      std::memcpy(o + ow * r.out_px, r0 + ow * s * r.in_px,
                  static_cast<size_t>(C));
      max_into(o + ow * r.out_px, r1 + ow * s * r.in_px, C);
    }
  }
}

/// Any other geometry, output rows [lo, hi): each output pixel's channel
/// vector is its first in-image tap, maxed with the others.
void pool_rows_generic(const PoolRows& r, int64_t lo, int64_t hi) {
  const PoolGeometry& p = *r.p;
  const int64_t C = p.channels, out_w = p.out_width();
  const int64_t pad_left = (p.size - 1) / 2;
  auto tap = [&](int64_t ih, int64_t iw) {
    return r.in + ((ih - r.in_row0) * p.in_width + iw) * r.in_px;
  };
  for (int64_t oh = lo; oh < hi; ++oh) {
    const int64_t ih0 = oh * p.stride - pad_left;
    const int64_t kh_lo = std::max<int64_t>(0, -ih0);
    const int64_t kh_hi = std::min(p.size, p.in_height - ih0);
    for (int64_t ow = 0; ow < out_w; ++ow) {
      const int64_t iw0 = ow * p.stride - pad_left;
      const int64_t kw_lo = std::max<int64_t>(0, -iw0);
      const int64_t kw_hi = std::min(p.size, p.in_width - iw0);
      uint8_t* o = r.out + (oh * out_w + ow) * r.out_px;
      std::memcpy(o, tap(ih0 + kh_lo, iw0 + kw_lo), static_cast<size_t>(C));
      for (int64_t kh = kh_lo; kh < kh_hi; ++kh)
        for (int64_t kw = kw_lo; kw < kw_hi; ++kw)
          if (kh != kh_lo || kw != kw_lo)
            max_into(o, tap(ih0 + kh, iw0 + kw), C);
    }
  }
}

void pool_rows(const PoolRows& r, int64_t lo, int64_t hi) {
  if (r.p->size == 2 && r.p->stride <= 2)
    pool_rows_size2(r, lo, hi);
  else
    pool_rows_generic(r, lo, hi);
}

void pool_shard(int64_t lo, int64_t hi, void* arg) {
  pool_rows(*static_cast<const PoolRows*>(arg), lo, hi);
}

/// Input rows [first, last) of conv geometry `g` that output rows
/// [lo, hi) read.
std::pair<int64_t, int64_t> input_rows(const ConvGeometry& g, int64_t lo,
                                       int64_t hi) {
  const int64_t first = std::clamp<int64_t>(lo * g.stride - g.pad, 0,
                                            g.in_height);
  const int64_t last = std::clamp<int64_t>(
      (hi - 1) * g.stride - g.pad + g.kernel, first, g.in_height);
  return {first, last};
}

/// Columns per tile-kernel call: one block of accumulators, thresholded
/// while it is in L1.
constexpr int64_t kBlockColumns = 16;
/// Packed-column bytes a band may gather, so its columns, codes and pixel
/// planes stay in a core's L2.
constexpr int64_t kBandBytes = 128 << 10;
/// Popcount words below which a call runs on the calling thread alone.
constexpr int64_t kMinWordsToShard = int64_t{1} << 17;
/// Fixed cost of one unit of work (a claim on the pool, the halo's pixel
/// planes) in the planner's row-word units: a few microseconds.
constexpr double kUnitCost = 30000;

/// How one call splits into units of work: each frame's output into
/// `per_frame` bands of `size` pooled rows (output positions when the
/// layer does not pool), and the weight rows into `slices` slices of
/// `slice_groups` row groups. Unit u is frame u / (per_frame · slices),
/// band (u / slices) % per_frame, slice u % slices.
struct Bands {
  int64_t per_frame = 1;
  int64_t size = 1;
  int64_t slices = 1;
  int64_t slice_groups = 1;
};

/// Conv output rows [lo, hi) pooled output rows [p0, p1) read.
std::pair<int64_t, int64_t> conv_rows(const PoolGeometry& p, int64_t p0,
                                      int64_t p1) {
  const int64_t pad = (p.size - 1) / 2;
  const int64_t lo = std::max<int64_t>(0, p0 * p.stride - pad);
  return {lo, std::min(p.in_height, (p1 - 1) * p.stride - pad + p.size)};
}

/// The split with the shortest modeled makespan on `threads` threads:
/// ceil(units / threads) rounds of the largest unit, a unit costing its
/// columns' popcount words (over its slice's rows) plus their gather, and
/// kUnitCost. A band's columns must fit kBandBytes unless it is one row or
/// position. Ties go to fewer units: each repeats its band's pixel planes
/// and gather, and every claim takes the pool's lock.
Bands plan_bands(const CodeLayer& l, int64_t batch, int64_t threads) {
  const ConvGeometry& g = l.geom;
  const BitSerialWeights& w = *l.weights;
  const bool pooled = l.pool_size > 0;
  const PoolGeometry p = l.pool();
  const int64_t extent = pooled ? p.out_height() : g.num_patches();
  const int64_t col_words = l.bits * w.words * (w.ternary() ? 2 : 1);
  const int64_t budget =
      std::max(kBlockColumns, kBandBytes / (8 * l.bits * w.words));
  // The gather's cost per packed word, in row-words of the tile kernel:
  // a word copy when C is a multiple of 64, shifts and masks otherwise
  // (measured on Tincy's L3 and L1).
  const double gather = g.in_channels % 64 == 0 ? 14 : 29;
  const int64_t groups = w.groups();
  const int64_t max_slices = threads > 1 ? std::max<int64_t>(1, groups / 4) : 1;
  auto columns = [&](int64_t size) {
    if (!pooled) return size;
    const auto [lo, hi] = conv_rows(p, 0, size);
    return (hi - lo) * g.out_width();
  };
  // The tallest band within the budget sets the fewest bands; up to 256
  // band counts from there are weighed.
  int64_t tallest = pooled ? 1 : std::min(extent, budget);
  while (pooled && tallest < extent && columns(tallest + 1) <= budget)
    ++tallest;
  const int64_t fewest = (extent + tallest - 1) / tallest;
  double best = std::numeric_limits<double>::infinity();
  Bands pick;
  int64_t pick_units = 0;
  for (int64_t n = fewest; n <= std::min(extent, fewest + 255); ++n) {
    const int64_t size = (extent + n - 1) / n;
    if ((extent + size - 1) / size != n) continue;  // as a smaller n
    const int64_t cols = columns(size);
    for (int64_t s = 1; s <= max_slices; s *= 2) {
      const int64_t slice_groups = (groups + s - 1) / s;
      const int64_t slices = (groups + slice_groups - 1) / slice_groups;
      if (slices != s) continue;  // as a smaller s
      const int64_t rows = std::min(w.rows, slice_groups * kBitSerialGroupRows);
      const int64_t units = batch * n * slices;
      const double unit =
          static_cast<double>(cols) * col_words * (rows + gather) + kUnitCost;
      const double makespan =
          static_cast<double>((units + threads - 1) / threads) * unit;
      if (makespan < best || (makespan == best && units < pick_units)) {
        best = makespan;
        pick = {n, size, slices, slice_groups};
        pick_units = units;
      }
    }
  }
  return pick;
}

struct StreamCtx {
  const CodeLayer* layer;
  const uint8_t* in;
  uint8_t* out;
  int64_t out_numel;  ///< per frame
  Bands bands;
  BitSerialTileArgs args;
  BitSerialFn fn;
  bool narrow;
};

/// One unit: a band's pixel planes, patch columns, tile blocks, codes and,
/// when the layer pools, its pooled rows of one channel slice.
void run_unit(const StreamCtx& ctx, int64_t u) {
  const CodeLayer& l = *ctx.layer;
  const ConvGeometry& g = l.geom;
  const Bands& bands = ctx.bands;
  const int64_t frame = u / (bands.per_frame * bands.slices);
  const int64_t band = (u / bands.slices) % bands.per_frame;
  const int64_t slice = u % bands.slices;
  const int64_t C = l.channels(), out_w = g.out_width();
  const int64_t g0 = slice * bands.slice_groups;
  const int64_t c0 = g0 * kBitSerialGroupRows;
  const BitSerialTileArgs args =
      bands.slices == 1 ? ctx.args
                        : slice_groups(ctx.args, g0, g0 + bands.slice_groups);
  const int64_t nc = args.rows;
  const bool pooled = l.pool_size > 0;
  const PoolGeometry p = l.pool();

  // The conv positions [j0, j1) this band computes, on rows [r_lo, r_hi).
  int64_t j0 = 0, j1 = 0, p0 = 0, p1 = 0, r_lo = 0, r_hi = 0;
  if (pooled) {
    p0 = band * bands.size;
    p1 = std::min(p.out_height(), p0 + bands.size);
    std::tie(r_lo, r_hi) = conv_rows(p, p0, p1);
    j0 = r_lo * out_w;
    j1 = r_hi * out_w;
  } else {
    j0 = band * bands.size;
    j1 = std::min(g.num_patches(), j0 + bands.size);
    r_lo = j0 / out_w;
    r_hi = (j1 - 1) / out_w + 1;
  }
  const auto [i_lo, i_hi] = input_rows(g, r_lo, r_hi);

  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  const int64_t col_words = l.bits * bitplane_words(g.patch_size());
  uint64_t* pix =
      arena.alloc<uint64_t>(pixel_plane_words(g, l.bits, i_hi - i_lo));
  uint64_t* cols = arena.alloc<uint64_t>((j1 - j0) * col_words);
  int32_t* acc = arena.alloc<int32_t>(kBlockColumns * nc);
  uint8_t* frame_out = ctx.out + frame * ctx.out_numel;
  // Unpooled codes live only as this band's rows of its slice.
  uint8_t* conv = pooled ? arena.alloc<uint8_t>((j1 - j0) * nc) : nullptr;

  pixel_planes(ctx.in + frame * l.in_numel(), g, l.bits, i_lo, i_hi, pix);
  patch_columns(pix, i_lo, g, l.bits, j0, j1, cols);
  for (int64_t j = j0; j < j1; j += kBlockColumns) {
    const int64_t count = std::min(kBlockColumns, j1 - j);
    ctx.fn(args, cols + (j - j0) * col_words, count, acc);
    threshold_block({l.thresholds, c0, nc, acc, nc, count,
                     pooled ? conv + (j - j0) * nc : frame_out + j * C + c0,
                     pooled ? nc : C},
                    ctx.narrow);
  }
  if (pooled) {
    PoolGeometry slice_pool = p;
    slice_pool.channels = nc;
    pool_rows({&slice_pool, conv, r_lo, nc, frame_out + c0, C}, p0, p1);
  }
}

void run_units(int64_t lo, int64_t hi, void* arg) {
  const auto& ctx = *static_cast<const StreamCtx*>(arg);
  for (int64_t u = lo; u < hi; ++u) run_unit(ctx, u);
}

}  // namespace

ThresholdTable::ThresholdTable(
    std::span<const quant::ThresholdChannel> per_channel)
    : channels(static_cast<int64_t>(per_channel.size())) {
  levels = per_channel.empty()
               ? 0
               : static_cast<int64_t>(per_channel.front().thresholds.size());
  thresholds.resize(static_cast<size_t>(levels * channels));
  flip.reserve(per_channel.size());
  for (int64_t c = 0; c < channels; ++c) {
    const auto& ch = per_channel[static_cast<size_t>(c)];
    TINCY_CHECK_MSG(static_cast<int64_t>(ch.thresholds.size()) == levels,
                    "channel " << c << " has " << ch.thresholds.size()
                               << " thresholds, channel 0 has " << levels);
    flip.push_back(ch.ascending ? 0 : ~0);
    for (int64_t k = 0; k < levels; ++k)
      thresholds[static_cast<size_t>(k * channels + c)] =
          ch.thresholds[static_cast<size_t>(k)] ^ flip.back();
  }
  narrow.reserve(thresholds.size());
  for (const int32_t t : thresholds)
    narrow.push_back(static_cast<int16_t>(
        std::clamp<int32_t>(t, std::numeric_limits<int16_t>::min(),
                            std::numeric_limits<int16_t>::max())));
}

void max_pool_codes(const PoolGeometry& p, const uint8_t* in, uint8_t* out) {
  TINCY_CHECK_MSG(p.size >= 1 && p.stride >= 1 && p.out_height() > 0 &&
                      p.out_width() > 0,
                  "pool " << p.size << "/" << p.stride << " over "
                          << p.in_height << "x" << p.in_width);
  PoolRows rows{&p, in, 0, p.channels, out, p.channels};
  // Memory-bound and vectorised: shard by output rows only for maps big
  // enough to repay the hand-off.
  core::ThreadPool& pool = core::ThreadPool::shared();
  const bool shard = p.channels * p.in_height * p.in_width >= (1 << 20);
  pool.parallel_for(0, p.out_height(), shard ? pool.threads() : 1, pool_shard,
                    &rows);
}

void threshold_columns(const ThresholdTable& table, const int32_t* acc,
                       int64_t count, uint8_t* level, int64_t acc_bound) {
  threshold_block({&table, 0, table.channels, acc, table.channels, count,
                   level, table.channels},
                  narrow_threshold(acc_bound));
}

Shape CodeLayer::out_shape() const {
  if (pool_size > 0) {
    const PoolGeometry p = pool();
    return Shape{channels(), p.out_height(), p.out_width()};
  }
  return Shape{channels(), geom.out_height(), geom.out_width()};
}

void run_code_layer(const CodeLayer& layer, const uint8_t* in, int64_t batch,
                    uint8_t* out) {
  TINCY_CHECK(layer.weights != nullptr && layer.thresholds != nullptr);
  const BitSerialWeights& w = *layer.weights;
  const ConvGeometry& g = layer.geom;
  TINCY_CHECK_MSG(w.cols == g.patch_size(),
                  w.cols << "-deep weights for a " << g.patch_size()
                         << "-deep patch");
  TINCY_CHECK_MSG(layer.thresholds->channels == w.rows,
                  layer.thresholds->channels << " threshold channels for "
                                             << w.rows << " rows");
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  TINCY_CHECK_MSG(layer.bits >= 1 && layer.bits <= 8, "bits " << layer.bits);
  TINCY_CHECK_MSG(!layer.bipolar || (layer.bits == 1 && !w.ternary()),
                  "bipolar codes need 1-bit activations and binary weights");
  // No exact zero exists in the bipolar code space, so padded taps would
  // corrupt the arithmetic. (FINN's fully binarized nets use valid
  // convolutions / FC layers.)
  TINCY_CHECK_MSG(!layer.bipolar || g.pad == 0, "bipolar conv cannot zero-pad");
  if (layer.pool_size > 0) {
    const PoolGeometry p = layer.pool();
    TINCY_CHECK_MSG(p.size >= 1 && p.stride >= 1 && p.out_height() > 0 &&
                        p.out_width() > 0,
                    "pool " << p.size << "/" << p.stride << " over "
                            << p.in_height << "x" << p.in_width);
  }

  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  core::ThreadPool& pool = core::ThreadPool::shared();
  const int64_t work = w.rows * g.num_patches() * batch * layer.bits *
                       w.words * (w.ternary() ? 2 : 1);
  const int64_t threads = work >= kMinWordsToShard ? pool.threads() : 1;
  StreamCtx ctx{&layer,
                in,
                out,
                layer.out_shape().numel(),
                plan_bands(layer, batch, threads),
                tile_args(w, layer.bits, layer.bipolar,
                          layer.bipolar ? arena.alloc<int64_t>(
                                              w.groups() * kBitSerialGroupRows)
                                        : nullptr),
                bitserial_kernel(resolve_kernel(PopcountKernel::kAuto)),
                narrow_threshold(layer.accumulator_bound())};
  const int64_t units = batch * ctx.bands.per_frame * ctx.bands.slices;
  pool.parallel_for(0, units, threads == 1 ? 1 : units, run_units, &ctx);
}

}  // namespace tincy::gemm
