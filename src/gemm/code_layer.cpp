#include "gemm/code_layer.hpp"

#include <algorithm>
#include <functional>

#include "core/errors.hpp"
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

void threshold_columns(const ThresholdTable& table, const int32_t* acc,
                       int64_t count, uint8_t* level) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2) return threshold_columns_avx2(table, acc, count, level);
#endif
  threshold_columns_body(table, acc, count, level);
}

/// Each accumulator becomes the output code its channel's thresholds give
/// it, stored in CHW order. Columns are frame-major (j = f·positions + p),
/// so one block may straddle two frames.
struct CodeEpilogue {
  const ThresholdTable* table;
  int64_t positions;
  uint8_t* out;

  void operator()(int64_t j0, int64_t count, const int32_t* acc) const {
    const int64_t channels = table->channels;
    Arena& arena = thread_arena();
    ScratchScope scope(arena);
    uint8_t* level = arena.alloc<uint8_t>(count * channels);
    threshold_columns(*table, acc, count, level);
    for (int64_t jj = 0; jj < count;) {
      const int64_t f = (j0 + jj) / positions, p = (j0 + jj) % positions;
      const int64_t run = std::min(count - jj, positions - p);
      uint8_t* dst = out + f * channels * positions + p;
      for (int64_t c = 0; c < channels; ++c) {
        uint8_t* row = dst + c * positions;
        for (int64_t k = 0; k < run; ++k) row[k] = level[(jj + k) * channels + c];
      }
      jj += run;
    }
  }
};

constexpr int64_t kPoolBlock = 16;

/// Size 2, stride 2: out[i] = max of taps 2i, 2i + 1 of rows r0 and r1.
void pool_row_s2(const uint8_t* __restrict r0, const uint8_t* __restrict r1,
                 int64_t in_w, uint8_t* __restrict out, int64_t out_w) {
  const int64_t full = in_w / 2;  // windows with both taps in the row
  int64_t i = 0;
  for (; i + kPoolBlock <= full; i += kPoolBlock) {
    uint8_t v[2 * kPoolBlock];
    for (int64_t k = 0; k < 2 * kPoolBlock; ++k)
      v[k] = std::max(r0[2 * i + k], r1[2 * i + k]);
    for (int64_t k = 0; k < kPoolBlock; ++k)
      out[i + k] = std::max(v[2 * k], v[2 * k + 1]);
  }
  for (; i < full; ++i)
    out[i] = std::max(std::max(r0[2 * i], r1[2 * i]),
                      std::max(r0[2 * i + 1], r1[2 * i + 1]));
  // Odd width: the last window's right tap is padding.
  if (full < out_w) out[full] = std::max(r0[in_w - 1], r1[in_w - 1]);
}

/// Size 2, stride 1: out[i] = max of taps i, i + 1 of rows r0 and r1.
void pool_row_s1(const uint8_t* __restrict r0, const uint8_t* __restrict r1,
                 int64_t in_w, uint8_t* __restrict out) {
  const int64_t full = in_w - 1;
  int64_t i = 0;
  for (; i + kPoolBlock <= full; i += kPoolBlock)
    for (int64_t k = 0; k < kPoolBlock; ++k)
      out[i + k] = std::max(std::max(r0[i + k], r1[i + k]),
                            std::max(r0[i + k + 1], r1[i + k + 1]));
  for (; i < full; ++i)
    out[i] = std::max(std::max(r0[i], r1[i]), std::max(r0[i + 1], r1[i + 1]));
  out[full] = std::max(r0[full], r1[full]);
}

/// Any other geometry: each output scans its in-image taps.
void pool_plane_generic(const PoolGeometry& p, const uint8_t* plane,
                        uint8_t* out) {
  const int64_t pad_left = (p.size - 1) / 2;
  const int64_t out_h = p.out_height(), out_w = p.out_width();
  for (int64_t oh = 0; oh < out_h; ++oh) {
    const int64_t ih0 = oh * p.stride - pad_left;
    const int64_t kh_lo = std::max<int64_t>(0, -ih0);
    const int64_t kh_hi = std::min(p.size, p.in_height - ih0);
    for (int64_t ow = 0; ow < out_w; ++ow) {
      const int64_t iw0 = ow * p.stride - pad_left;
      const int64_t kw_lo = std::max<int64_t>(0, -iw0);
      const int64_t kw_hi = std::min(p.size, p.in_width - iw0);
      uint8_t best = 0;
      for (int64_t kh = kh_lo; kh < kh_hi; ++kh)
        for (int64_t kw = kw_lo; kw < kw_hi; ++kw)
          best = std::max(best, plane[(ih0 + kh) * p.in_width + iw0 + kw]);
      out[oh * out_w + ow] = best;
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
  const int64_t in_plane = p.in_height * p.in_width;
  const int64_t out_h = p.out_height(), out_w = p.out_width();
  for (int64_t c = 0; c < p.channels; ++c) {
    const uint8_t* plane = in + c * in_plane;
    uint8_t* out_plane = out + c * out_h * out_w;
    if (p.size != 2 || p.stride > 2) {
      pool_plane_generic(p, plane, out_plane);
      continue;
    }
    // Size 2 pads right/bottom: window rows oh·stride and the next one,
    // which is padding past the last row.
    for (int64_t oh = 0; oh < out_h; ++oh) {
      const uint8_t* r0 = plane + oh * p.stride * p.in_width;
      const uint8_t* r1 =
          oh * p.stride + 1 < p.in_height ? r0 + p.in_width : r0;
      uint8_t* o = out_plane + oh * out_w;
      if (p.stride == 2)
        pool_row_s2(r0, r1, p.in_width, o, out_w);
      else
        pool_row_s1(r0, r1, p.in_width, o);
    }
  }
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
  const CodeEpilogue epilogue{layer.thresholds, positions, conv};
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
