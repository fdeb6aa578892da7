#pragma once

// Scalar oracle of the code-domain W1A<bits> layer (gemm/code_layer.hpp),
// built from pieces that share no code with it: a Darknet-order footprint
// gather with code-0 padding, the bit-serial kernel's scalar reference
// (gemm::bitserial_gemm_reference), one ThresholdChannel::apply per output
// and a max pool that bounds-checks every tap. test_code_layer pins the
// engine to it bit for bit. Nothing outside tests/ includes this.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/errors.hpp"
#include "gemm/bitserial.hpp"
#include "gemm/code_layer.hpp"
#include "quant/thresholds.hpp"

namespace tincy::oracle {

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

}  // namespace tincy::oracle
