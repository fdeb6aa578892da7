#include "nn/maxpool_layer.hpp"

#include <algorithm>
#include <limits>

#include "gemm/code_layer.hpp"
#include "gemm/layout.hpp"
#include "gemm/scratch.hpp"

namespace tincy::nn {

MaxPoolLayer::MaxPoolLayer(const MaxPoolConfig& cfg, Shape input_shape)
    : cfg_(cfg), in_shape_(input_shape) {
  TINCY_CHECK(input_shape.rank() == 3);
  const int64_t padding = cfg.size - 1;  // Darknet's implicit total padding
  out_h_ = (input_shape.height() + padding - cfg.size) / cfg.stride + 1;
  out_w_ = (input_shape.width() + padding - cfg.size) / cfg.stride + 1;
  TINCY_CHECK_MSG(out_h_ > 0 && out_w_ > 0,
                  "degenerate pool output for " << input_shape.to_string());
}

Shape MaxPoolLayer::output_shape() const {
  return Shape{in_shape_.channels(), out_h_, out_w_};
}

void MaxPoolLayer::forward(const Tensor& in, Tensor& out) {
  TINCY_CHECK(in.shape() == in_shape_);
  TINCY_CHECK(out.shape() == output_shape());
  const int64_t C = in_shape_.channels(), H = in_shape_.height(),
                W = in_shape_.width();
  const int64_t size = cfg_.size, stride = cfg_.stride;
  const int64_t pad_left = (size - 1) / 2;  // 0 for size 2: pad right/bottom
  // Output columns [ow_lo, ow_hi) see a full window inside the row; the
  // border columns on either side clip their taps instead.
  const int64_t ow_lo = std::min(out_w_, (pad_left + stride - 1) / stride);
  // The window of column ow fits in the row iff ow·stride <= last_full.
  const int64_t last_full = W + pad_left - size;
  const int64_t ow_hi = std::clamp<int64_t>(
      last_full < 0 ? 0 : last_full / stride + 1, ow_lo, out_w_);
  const float lowest = -std::numeric_limits<float>::infinity();
  // Each output folds its taps kh-major, kw-minor with std::max(best, x),
  // as a per-window scan would: NaN taps are skipped and the first of
  // equal values (±0) wins.
  auto border = [&](const float* row, float* out_row, int64_t ow) {
    const int64_t iw0 = ow * stride - pad_left;
    const int64_t kw_hi = std::min(size, W - iw0);
    for (int64_t kw = std::max<int64_t>(0, -iw0); kw < kw_hi; ++kw)
      out_row[ow] = std::max(out_row[ow], row[iw0 + kw]);
  };
  for (int64_t c = 0; c < C; ++c) {
    const float* plane = in.data() + c * H * W;
    float* out_plane = out.data() + c * out_h_ * out_w_;
    for (int64_t oh = 0; oh < out_h_; ++oh) {
      float* out_row = out_plane + oh * out_w_;
      std::fill(out_row, out_row + out_w_, lowest);
      const int64_t ih0 = oh * stride - pad_left;
      const int64_t kh_hi = std::min(size, H - ih0);
      for (int64_t kh = std::max<int64_t>(0, -ih0); kh < kh_hi; ++kh) {
        const float* row = plane + (ih0 + kh) * W;
        for (int64_t ow = 0; ow < ow_lo; ++ow) border(row, out_row, ow);
        for (int64_t kw = 0; kw < size && ow_lo < ow_hi; ++kw) {
          const float* tap = row + ow_lo * stride - pad_left + kw;
          float* best = out_row + ow_lo;
          for (int64_t i = 0; i < ow_hi - ow_lo; ++i)
            best[i] = std::max(best[i], tap[i * stride]);
        }
        for (int64_t ow = ow_hi; ow < out_w_; ++ow) border(row, out_row, ow);
      }
    }
  }
}

MaybeGrid MaxPoolLayer::read_grid(MaybeGrid offered) const {
  return offered;
}

MaybeGrid MaxPoolLayer::write_grid(MaybeGrid in, MaybeGrid /*wanted*/) const {
  return in;
}

void MaxPoolLayer::forward(const LayerIn& in, const LayerOut& out) {
  if (in.floats) {
    TINCY_CHECK_MSG(out.floats, "a pool on floats writes floats");
    forward(*in.floats, *out.floats);
    return;
  }
  // HWC codes in and out, like every code map.
  TINCY_CHECK(!out.codes || out.grid == in.grid);
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  const int64_t C = in_shape_.channels(), pixels = out_h_ * out_w_;
  uint8_t* pooled = out.codes ? out.codes : arena.alloc<uint8_t>(C * pixels);
  gemm::max_pool_codes({C, in_shape_.height(), in_shape_.width(), cfg_.size,
                        cfg_.stride},
                       in.codes, pooled);
  if (out.floats)
    gemm::dequantize_to_chw(in.grid, pooled, C, pixels, out.floats->data());
}

OpsCount MaxPoolLayer::ops() const {
  return {cfg_.size * cfg_.size * out_h_ * out_w_, kFloat};
}

}  // namespace tincy::nn
