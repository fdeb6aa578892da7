#pragma once

// Scalar oracle of the code-domain W1A<bits> layer (gemm/code_layer.hpp),
// built from pieces that share no code with it: a Darknet-order footprint
// gather with code-0 padding, the bit-serial kernel's scalar reference
// (gemm::bitserial_gemm_reference), one ThresholdChannel::apply per output
// and a max pool that bounds-checks every tap. It works on CHW maps; the
// engine reads and writes pixel-major (HWC) ones, so the tests convert
// with to_hwc / to_chw, which share no code with gemm/layout.hpp.
// test_code_layer and test_code_layer_conformance pin the engine to it
// bit for bit. Nothing outside tests/ and bench/ includes this.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "gemm/bitserial.hpp"
#include "gemm/code_layer.hpp"
#include "quant/binary.hpp"
#include "quant/ternary.hpp"
#include "quant/thresholds.hpp"

namespace tincy::oracle {

/// out[p·channels + c] = in[c·pixels + p]: a CHW map to HWC, one element
/// at a time.
template <typename T>
inline void to_hwc(const T* in, int64_t channels, int64_t pixels, T* out) {
  for (int64_t c = 0; c < channels; ++c)
    for (int64_t p = 0; p < pixels; ++p) out[p * channels + c] = in[c * pixels + p];
}

/// out[c·pixels + p] = in[p·channels + c]: an HWC map to CHW.
template <typename T>
inline void to_chw(const T* in, int64_t channels, int64_t pixels, T* out) {
  for (int64_t c = 0; c < channels; ++c)
    for (int64_t p = 0; p < pixels; ++p) out[c * pixels + p] = in[p * channels + c];
}

/// Max pool of one CHW code map, one bounds test per tap.
inline void max_pool_codes(const gemm::PoolGeometry& spec, const uint8_t* in,
                           uint8_t* out) {
  const int64_t out_h = spec.out_height(), out_w = spec.out_width();
  const int64_t pad_left = (spec.size - 1) / 2;
  for (int64_t c = 0; c < spec.channels; ++c) {
    const uint8_t* plane = in + c * spec.in_height * spec.in_width;
    uint8_t* out_plane = out + c * out_h * out_w;
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        uint8_t best = 0;
        bool any = false;
        for (int64_t kh = 0; kh < spec.size; ++kh) {
          const int64_t ih = oh * spec.stride - pad_left + kh;
          if (ih < 0 || ih >= spec.in_height) continue;
          for (int64_t kw = 0; kw < spec.size; ++kw) {
            const int64_t iw = ow * spec.stride - pad_left + kw;
            if (iw < 0 || iw >= spec.in_width) continue;
            best = any ? std::max(best, plane[ih * spec.in_width + iw])
                       : plane[ih * spec.in_width + iw];
            any = true;
          }
        }
        TINCY_CHECK(any);
        out_plane[oh * out_w + ow] = best;
      }
    }
  }
}

/// One frame of the layer. `w` holds rows × C·K² weights in {−1, 0, +1}
/// in Darknet order (c·K² + kh·K + kw); `in` one C×H×W code map. Returns
/// the output codes (rows × out map, pooled when pool_size > 0).
inline std::vector<uint8_t> code_layer(
    const std::vector<int8_t>& w, int64_t rows, const gemm::ConvGeometry& g,
    const std::vector<quant::ThresholdChannel>& thresholds, bool bipolar,
    int64_t pool_size, int64_t pool_stride, const uint8_t* in) {
  const int64_t cols = g.patch_size(), n = g.num_patches();
  const int64_t k2 = g.kernel * g.kernel;
  std::vector<uint8_t> columns(static_cast<size_t>(n * cols));
  for (int64_t oh = 0; oh < g.out_height(); ++oh)
    for (int64_t ow = 0; ow < g.out_width(); ++ow) {
      uint8_t* col = columns.data() + (oh * g.out_width() + ow) * cols;
      for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t kh = 0; kh < g.kernel; ++kh)
          for (int64_t kw = 0; kw < g.kernel; ++kw) {
            const int64_t ih = oh * g.stride - g.pad + kh;
            const int64_t iw = ow * g.stride - g.pad + kw;
            const bool inside =
                ih >= 0 && ih < g.in_height && iw >= 0 && iw < g.in_width;
            col[c * k2 + kh * g.kernel + kw] =
                inside ? in[(c * g.in_height + ih) * g.in_width + iw] : 0;
          }
    }
  std::vector<int32_t> acc(static_cast<size_t>(n * rows));
  gemm::bitserial_gemm_reference(w.data(), rows, cols, columns.data(), n,
                                 bipolar, acc.data());
  std::vector<uint8_t> conv(static_cast<size_t>(rows * n));
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t j = 0; j < n; ++j)
      conv[static_cast<size_t>(r * n + j)] =
          thresholds[static_cast<size_t>(r)].apply(
              acc[static_cast<size_t>(j * rows + r)]);
  if (pool_size == 0) return conv;
  const gemm::PoolGeometry p{rows, g.out_height(), g.out_width(), pool_size,
                             pool_stride};
  std::vector<uint8_t> pooled(
      static_cast<size_t>(rows * p.out_height() * p.out_width()));
  oracle::max_pool_codes(p, conv.data(), pooled.data());
  return pooled;
}

// --- A random layer and its oracle ----------------------------------------

enum class Weights { kBinary, kTernary, kBipolar };

/// Random per-channel thresholds around the accumulator's spread, in both
/// directions, with a few saturated entries.
inline std::vector<quant::ThresholdChannel> random_thresholds(Rng& rng, int64_t rows,
                                                       int levels,
                                                       int64_t spread) {
  std::vector<quant::ThresholdChannel> all(static_cast<size_t>(rows));
  for (auto& ch : all) {
    ch.ascending = rng.bernoulli(0.7);
    for (int k = 0; k < levels; ++k)
      ch.thresholds.push_back(
          static_cast<int32_t>(rng.uniform_int(-spread, spread)));
    std::sort(ch.thresholds.begin(), ch.thresholds.end());
    if (!ch.ascending) std::reverse(ch.thresholds.begin(), ch.thresholds.end());
    if (rng.bernoulli(0.1))
      ch.thresholds[static_cast<size_t>(rng.uniform_int(0, levels - 1))] =
          rng.bernoulli(0.5) ? std::numeric_limits<int32_t>::min()
                             : std::numeric_limits<int32_t>::max();
  }
  return all;
}

/// One layer under test: the packed engine inputs and the oracle's. Its
/// random codes are CHW maps, the oracle's layout.
struct LayerRig {
  gemm::ConvGeometry g;
  int64_t rows = 0;
  int bits = 1;
  bool bipolar = false;
  std::vector<int8_t> w;  ///< Darknet order, for the oracle
  gemm::BitSerialWeights packed;
  std::vector<quant::ThresholdChannel> thresholds;
  gemm::ThresholdTable table;

  LayerRig(Rng& rng, const gemm::ConvGeometry& geom, int64_t r, int b,
           Weights kind)
      : g(geom), rows(r), bits(b), bipolar(kind == Weights::kBipolar) {
    Tensor real(Shape{rows, g.patch_size()});
    for (int64_t i = 0; i < real.numel(); ++i) real[i] = rng.normal();
    if (kind == Weights::kTernary) {
      const quant::TernaryMatrix tm = quant::ternarize(real);
      packed = gemm::pack_bitserial(tm, g.kernel);
      // value() is ±row_scale, which rounds to 0 below 1: take its sign.
      for (int64_t i = 0; i < rows; ++i)
        for (int64_t k = 0; k < g.patch_size(); ++k) {
          const float v = tm.value(i, k);
          w.push_back(static_cast<int8_t>((v > 0.0f) - (v < 0.0f)));
        }
    } else {
      const quant::BinaryMatrix bm = quant::binarize(real);
      packed = gemm::pack_bitserial(bm, g.kernel);
      for (int64_t i = 0; i < rows; ++i)
        for (int64_t k = 0; k < g.patch_size(); ++k)
          w.push_back(static_cast<int8_t>(bm.value(i, k)));
    }
    const int levels = bipolar ? 1 : (1 << bits) - 1;
    const int64_t spread =
        bipolar ? g.patch_size() : g.patch_size() * levels / 4 + 1;
    thresholds = random_thresholds(rng, rows, levels, spread);
    table = gemm::ThresholdTable(thresholds);
  }

  gemm::CodeLayer layer(int64_t pool_size, int64_t pool_stride) const {
    gemm::CodeLayer l;
    l.geom = g;
    l.bits = bits;
    l.bipolar = bipolar;
    l.weights = &packed;
    l.thresholds = &table;
    l.pool_size = pool_size;
    l.pool_stride = pool_stride;
    return l;
  }

  std::vector<uint8_t> random_codes(Rng& rng, int64_t batch) const {
    std::vector<uint8_t> codes(
        static_cast<size_t>(batch * g.in_channels * g.in_height * g.in_width));
    for (auto& c : codes)
      c = static_cast<uint8_t>(rng.uniform_int(0, (1 << bits) - 1));
    return codes;
  }

  std::vector<uint8_t> oracle(const uint8_t* frame, int64_t pool_size,
                              int64_t pool_stride) const {
    return code_layer(w, rows, g, thresholds, bipolar, pool_size, pool_stride,
                      frame);
  }
};

}  // namespace tincy::oracle
