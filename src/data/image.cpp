#include "data/image.hpp"

#include <algorithm>
#include <cmath>

#include "gemm/scratch.hpp"

namespace tincy::data {

namespace {

/// Source taps of one output column: x0/x1 and the weights wx, 1 − wx.
struct ColumnTap {
  int64_t x0, x1;
  float wx, wx1;
};

/// Bilinear resize of the (C, H, W) map `src` to (C, out_h, out_w),
/// written to `dst` with the given plane and row strides (so it can land
/// inside a padded frame). One pass per output row over per-column tap
/// tables built once; the float expression and its evaluation order are
/// the textbook per-pixel form's, so the result is bit-identical to it.
void resize_into(const float* src, int64_t C, int64_t H, int64_t W,
                 int64_t out_h, int64_t out_w, float* dst,
                 int64_t dst_plane_stride, int64_t dst_row_stride) {
  const float sy = out_h > 1 ? static_cast<float>(H - 1) / static_cast<float>(out_h - 1)
                             : 0.0f;
  const float sx = out_w > 1 ? static_cast<float>(W - 1) / static_cast<float>(out_w - 1)
                             : 0.0f;
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  ColumnTap* taps = arena.alloc<ColumnTap>(out_w);
  for (int64_t ox = 0; ox < out_w; ++ox) {
    const float fx = static_cast<float>(ox) * sx;
    const int64_t x0 = static_cast<int64_t>(fx);
    const float wx = fx - static_cast<float>(x0);
    taps[ox] = {x0, std::min(x0 + 1, W - 1), wx, 1 - wx};
  }
  for (int64_t c = 0; c < C; ++c) {
    const float* plane = src + c * H * W;
    for (int64_t oy = 0; oy < out_h; ++oy) {
      const float fy = static_cast<float>(oy) * sy;
      const int64_t y0 = static_cast<int64_t>(fy);
      const int64_t y1 = std::min(y0 + 1, H - 1);
      const float wy = fy - static_cast<float>(y0), wy1 = 1 - wy;
      const float* r0 = plane + y0 * W;
      const float* r1 = plane + y1 * W;
      float* row = dst + c * dst_plane_stride + oy * dst_row_stride;
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const ColumnTap t = taps[ox];
        row[ox] = wy1 * (t.wx1 * r0[t.x0] + t.wx * r0[t.x1]) +
                  wy * (t.wx1 * r1[t.x0] + t.wx * r1[t.x1]);
      }
    }
  }
}

}  // namespace

Tensor resize_bilinear(const Tensor& image, int64_t out_h, int64_t out_w) {
  TINCY_CHECK(image.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  TINCY_CHECK(H > 0 && W > 0 && out_h > 0 && out_w > 0);
  Tensor out(Shape{C, out_h, out_w});
  resize_into(image.data(), C, H, W, out_h, out_w, out.data(), out_h * out_w,
              out_w);
  return out;
}

Tensor letterbox(const Tensor& image, int64_t size) {
  TINCY_CHECK(image.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  TINCY_CHECK(H > 0 && W > 0 && size > 0);
  int64_t new_w, new_h;
  if (W >= H) {
    new_w = size;
    new_h = std::max<int64_t>(1, H * size / W);
  } else {
    new_h = size;
    new_w = std::max<int64_t>(1, W * size / H);
  }
  Tensor boxed(Shape{C, size, size}, 0.5f);
  const int64_t off_y = (size - new_h) / 2, off_x = (size - new_w) / 2;
  resize_into(image.data(), C, H, W, new_h, new_w,
              boxed.data() + off_y * size + off_x, size * size, size);
  return boxed;
}

void unletterbox_box(float& bx, float& by, float& bw, float& bh,
                     int64_t orig_w, int64_t orig_h, int64_t boxed_size) {
  int64_t new_w, new_h;
  if (orig_w >= orig_h) {
    new_w = boxed_size;
    new_h = std::max<int64_t>(1, orig_h * boxed_size / orig_w);
  } else {
    new_h = boxed_size;
    new_w = std::max<int64_t>(1, orig_w * boxed_size / orig_h);
  }
  const float fx = static_cast<float>(new_w) / static_cast<float>(boxed_size);
  const float fy = static_cast<float>(new_h) / static_cast<float>(boxed_size);
  const float off_x = (1.0f - fx) / 2.0f;
  const float off_y = (1.0f - fy) / 2.0f;
  bx = (bx - off_x) / fx;
  by = (by - off_y) / fy;
  bw = bw / fx;
  bh = bh / fy;
}

}  // namespace tincy::data
