#include "gemm/code_layer.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/errors.hpp"
#include "core/thread_pool.hpp"
#include "gemm/scratch.hpp"

namespace tincy::gemm {

namespace {

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

/// level[jj·channels + c]: the output code of accumulator column jj,
/// channel c, for `count` columns. Inlined into one function per ISA.
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void threshold_columns_body(const ThresholdTable& table,
                                   const int32_t* acc, int64_t count,
                                   uint8_t* level) {
  constexpr int64_t kLanes = 16;
  const int64_t channels = table.channels, levels = table.levels;
  const int32_t* thresholds = table.thresholds.data();
  const int32_t* flip = table.flip.data();
  for (int64_t jj = 0; jj < count; ++jj) {
    const int32_t* a = acc + jj * channels;
    uint8_t* lv = level + jj * channels;
    int64_t c = 0;
    for (; c + kLanes <= channels; c += kLanes)
      count_levels<kLanes>(a + c, flip + c, thresholds + c, levels, channels,
                           lv + c);
    for (; c < channels; ++c)
      count_levels<1>(a + c, flip + c, thresholds + c, levels, channels,
                      lv + c);
  }
}

// The threshold pass is compare-bound, so it is also built for AVX2 (as
// the packed GEMM's kernels_avx2.cpp is) and picked when cpuid has it.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
__attribute__((target("avx2"))) void threshold_columns_avx2(
    const ThresholdTable& table, const int32_t* acc, int64_t count,
    uint8_t* level) {
  threshold_columns_body(table, acc, count, level);
}
#endif

/// Each accumulator becomes the output code its channel's thresholds give
/// it. threshold_columns computes a column's codes channel-innermost,
/// which is the HWC layout: columns are frame-major (j = f·positions + p)
/// and frames are stacked, so column j's codes start at out + j·channels,
/// whichever frame it belongs to.
struct CodeEpilogue {
  const ThresholdTable* table;
  uint8_t* out;

  void operator()(int64_t j0, int64_t count, const int32_t* acc) const {
    threshold_columns(*table, acc, count, out + j0 * table->channels);
  }
};

/// The pools run in fixed-length blocks over restrict pointers, so the
/// bodies vectorise at -O2 (whose cost model leaves byte loops of runtime
/// length scalar).
constexpr int64_t kPoolBlock = 16;

/// o[i] = max of a[i], a[C + i], b[i], b[C + i] for i < n: 2 × 2 windows
/// of HWC pixels with C channels (a, b: the top-left and bottom-left
/// taps), one window for n = C, a stride-1 row of them for longer n.
inline void max_2x2(const uint8_t* __restrict a, const uint8_t* __restrict b,
                    int64_t n, int64_t C, uint8_t* __restrict o) {
  const uint8_t* a1 = a + C;
  const uint8_t* b1 = b + C;
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

struct PoolCtx {
  const PoolGeometry* p;
  const uint8_t* in;
  uint8_t* out;
};

/// Size 2, stride 1 or 2, output rows [lo, hi) of one HWC map. Darknet
/// pads right and bottom: output row oh maxes input rows oh·stride and the
/// next one (the same row again past the last), and a window whose right
/// tap is past the row keeps its left tap. Each run below is contiguous
/// over the channels, so it vectorises.
void pool_rows_size2(int64_t lo, int64_t hi, void* arg) {
  const auto& ctx = *static_cast<const PoolCtx*>(arg);
  const PoolGeometry& p = *ctx.p;
  const int64_t C = p.channels, W = p.in_width, s = p.stride;
  const int64_t out_w = p.out_width(), row = W * C;
  // Windows [0, full) have both taps in the row.
  const int64_t full = W >= 2 ? std::min(out_w, (W - 2) / s + 1) : 0;
  for (int64_t oh = lo; oh < hi; ++oh) {
    const uint8_t* __restrict r0 = ctx.in + oh * s * row;
    const uint8_t* __restrict r1 = oh * s + 1 < p.in_height ? r0 + row : r0;
    uint8_t* __restrict o = ctx.out + oh * out_w * C;
    if (s == 1)  // out[i] and in[i], in[i + C] line up across the row
      max_2x2(r0, r1, full * C, C, o);
    else
      for (int64_t ow = 0; ow < full; ++ow)
        max_2x2(r0 + 2 * ow * C, r1 + 2 * ow * C, C, C, o + ow * C);
    for (int64_t ow = full; ow < out_w; ++ow) {  // the right tap is padding
      std::memcpy(o + ow * C, r0 + ow * s * C, static_cast<size_t>(C));
      max_into(o + ow * C, r1 + ow * s * C, C);
    }
  }
}

/// Any other geometry, output rows [lo, hi): each output pixel's channel
/// vector is its first in-image tap, maxed with the others.
void pool_rows_generic(int64_t lo, int64_t hi, void* arg) {
  const auto& ctx = *static_cast<const PoolCtx*>(arg);
  const PoolGeometry& p = *ctx.p;
  const int64_t C = p.channels, out_w = p.out_width();
  const int64_t pad_left = (p.size - 1) / 2;
  for (int64_t oh = lo; oh < hi; ++oh) {
    const int64_t ih0 = oh * p.stride - pad_left;
    const int64_t kh_lo = std::max<int64_t>(0, -ih0);
    const int64_t kh_hi = std::min(p.size, p.in_height - ih0);
    for (int64_t ow = 0; ow < out_w; ++ow) {
      const int64_t iw0 = ow * p.stride - pad_left;
      const int64_t kw_lo = std::max<int64_t>(0, -iw0);
      const int64_t kw_hi = std::min(p.size, p.in_width - iw0);
      uint8_t* o = ctx.out + (oh * out_w + ow) * C;
      std::memcpy(o, ctx.in + ((ih0 + kh_lo) * p.in_width + iw0 + kw_lo) * C,
                  static_cast<size_t>(C));
      for (int64_t kh = kh_lo; kh < kh_hi; ++kh)
        for (int64_t kw = kw_lo; kw < kw_hi; ++kw)
          if (kh != kh_lo || kw != kw_lo)
            max_into(o, ctx.in + ((ih0 + kh) * p.in_width + iw0 + kw) * C, C);
    }
  }
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
}

void max_pool_codes(const PoolGeometry& p, const uint8_t* in, uint8_t* out) {
  TINCY_CHECK_MSG(p.size >= 1 && p.stride >= 1 && p.out_height() > 0 &&
                      p.out_width() > 0,
                  "pool " << p.size << "/" << p.stride << " over "
                          << p.in_height << "x" << p.in_width);
  PoolCtx ctx{&p, in, out};
  // Memory-bound and vectorised: shard by output rows only for maps big
  // enough to repay the hand-off (Tincy's L2 input, 2.8 MB, is).
  core::ThreadPool& pool = core::ThreadPool::shared();
  const bool shard = p.channels * p.in_height * p.in_width >= (1 << 20);
  pool.parallel_for(0, p.out_height(), shard ? pool.threads() : 1,
                    p.size == 2 && p.stride <= 2 ? pool_rows_size2
                                                 : pool_rows_generic,
                    &ctx);
}

void threshold_columns(const ThresholdTable& table, const int32_t* acc,
                       int64_t count, uint8_t* level) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2) return threshold_columns_avx2(table, acc, count, level);
#endif
  threshold_columns_body(table, acc, count, level);
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
  // No exact zero exists in the bipolar code space, so padded taps would
  // corrupt the arithmetic. (FINN's fully binarized nets use valid
  // convolutions / FC layers.)
  TINCY_CHECK_MSG(!layer.bipolar || g.pad == 0, "bipolar conv cannot zero-pad");

  Arena& arena = thread_arena();
  ScratchScope scope(arena);
  const int64_t positions = g.num_patches();
  const int64_t col_words = layer.bits * bitplane_words(w.cols);
  uint64_t* planes = arena.alloc<uint64_t>(batch * positions * col_words);
  for (int64_t f = 0; f < batch; ++f)
    im2col_bitplanes(in + f * layer.in_numel(), g, layer.bits,
                     planes + f * positions * col_words);

  const int64_t conv_numel = w.rows * positions;
  uint8_t* conv =
      layer.pool_size > 0 ? arena.alloc<uint8_t>(batch * conv_numel) : out;
  const CodeEpilogue epilogue{layer.thresholds, conv};
  // Passed by reference, so the std::function does not allocate.
  bitserial_gemm(w, planes, batch * positions, layer.bits, layer.bipolar,
                 std::cref(epilogue));

  if (layer.pool_size > 0) {
    const PoolGeometry p = layer.pool();
    const int64_t pooled = w.rows * p.out_height() * p.out_width();
    for (int64_t f = 0; f < batch; ++f)
      max_pool_codes(p, conv + f * conv_numel, out + f * pooled);
  }
}

}  // namespace tincy::gemm
