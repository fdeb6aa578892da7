#include "data/image.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/thread_pool.hpp"
#include "gemm/scratch.hpp"

namespace tincy::data {

namespace {

/// Source taps of one output column: x0/x1 and the weights wx, 1 − wx.
struct ColumnTap {
  int64_t x0, x1;
  float wx, wx1;
};

/// Frames of fewer floats are filled on the calling thread: handing rows
/// to the pool costs more than they take (the 64 × 64 serving letterbox,
/// 12 K floats, stays inline; the 416 frame, 519 K, shards).
constexpr int64_t kMinShardedFloats = 1 << 16;

/// A (C, frame_h, frame_w) frame holding the (C, H, W) map `src` resized
/// bilinearly to (new_h, new_w) at (off_y, off_x), with `pad` around it.
struct Placement {
  const float* src;
  int64_t H, W;
  int64_t new_h, new_w, off_y, off_x;
  float* dst;
  int64_t frame_h, frame_w;
  float pad;
  float sy;
  const ColumnTap* taps;  ///< one per resized column
};

/// Writes frame rows [lo, hi), row u being channel u / frame_h, row
/// u % frame_h: pad rows get `pad`, image rows their pad columns and one
/// pass over the tap table. The float expression and its evaluation order
/// are the textbook per-pixel form's, so the result is bit-identical to it.
void frame_rows(int64_t lo, int64_t hi, void* ctx) {
  const Placement& p = *static_cast<const Placement*>(ctx);
  for (int64_t u = lo; u < hi; ++u) {
    float* row = p.dst + u * p.frame_w;
    const int64_t oy = u % p.frame_h - p.off_y;
    if (oy < 0 || oy >= p.new_h) {
      std::fill(row, row + p.frame_w, p.pad);
      continue;
    }
    std::fill(row, row + p.off_x, p.pad);
    std::fill(row + p.off_x + p.new_w, row + p.frame_w, p.pad);
    const float fy = static_cast<float>(oy) * p.sy;
    const int64_t y0 = static_cast<int64_t>(fy);
    const int64_t y1 = std::min(y0 + 1, p.H - 1);
    const float wy = fy - static_cast<float>(y0), wy1 = 1 - wy;
    const float* plane = p.src + u / p.frame_h * p.H * p.W;
    const float* r0 = plane + y0 * p.W;
    const float* r1 = plane + y1 * p.W;
    float* out = row + p.off_x;
    for (int64_t ox = 0; ox < p.new_w; ++ox) {
      const ColumnTap t = p.taps[ox];
      out[ox] = wy1 * (t.wx1 * r0[t.x0] + t.wx * r0[t.x1]) +
                wy * (t.wx1 * r1[t.x0] + t.wx * r1[t.x1]);
    }
  }
}

/// Fills the frame of `p` (src, H, W, new_h, new_w, offsets, dst, frame
/// extents, pad; the taps are built here, in arena scratch), sharding its
/// rows over `pool` for frames of at least kMinShardedFloats.
void place(Placement p, int64_t C, core::ThreadPool& pool) {
  p.sy = p.new_h > 1 ? static_cast<float>(p.H - 1) /
                           static_cast<float>(p.new_h - 1)
                     : 0.0f;
  const float sx = p.new_w > 1 ? static_cast<float>(p.W - 1) /
                                     static_cast<float>(p.new_w - 1)
                               : 0.0f;
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  ColumnTap* taps = arena.alloc<ColumnTap>(p.new_w);
  for (int64_t ox = 0; ox < p.new_w; ++ox) {
    const float fx = static_cast<float>(ox) * sx;
    const int64_t x0 = static_cast<int64_t>(fx);
    const float wx = fx - static_cast<float>(x0);
    taps[ox] = {x0, std::min(x0 + 1, p.W - 1), wx, 1 - wx};
  }
  p.taps = taps;
  const int64_t rows = C * p.frame_h;
  // Pad rows cost less than image rows: a few blocks per thread let the
  // pool even them out.
  const int64_t chunks =
      rows * p.frame_w >= kMinShardedFloats ? 4 * pool.threads() : 1;
  pool.parallel_for(0, rows, chunks, frame_rows, &p);
}

/// Darknet's letterbox extents of an H × W image in a size × size frame.
std::pair<int64_t, int64_t> boxed_extents(int64_t H, int64_t W,
                                          int64_t size) {
  if (W >= H) return {std::max<int64_t>(1, H * size / W), size};
  return {size, std::max<int64_t>(1, W * size / H)};
}

}  // namespace

Tensor resize_bilinear(const Tensor& image, int64_t out_h, int64_t out_w) {
  TINCY_CHECK(image.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  TINCY_CHECK(H > 0 && W > 0 && out_h > 0 && out_w > 0);
  Tensor out(Shape{C, out_h, out_w});
  Placement p{};
  p.src = image.data();
  p.H = H;
  p.W = W;
  p.new_h = p.frame_h = out_h;
  p.new_w = p.frame_w = out_w;
  p.dst = out.data();
  place(p, C, core::ThreadPool::shared());
  return out;
}

void letterbox_into(const Tensor& image, Tensor& boxed,
                    core::ThreadPool& pool) {
  TINCY_CHECK(image.shape().rank() == 3 && boxed.shape().rank() == 3);
  const int64_t C = image.shape().channels(), H = image.shape().height(),
                W = image.shape().width();
  const int64_t size = boxed.shape().height();
  TINCY_CHECK(H > 0 && W > 0 && size > 0);
  TINCY_CHECK_MSG(boxed.shape() == Shape({C, size, size}),
                  "letterbox frame " << boxed.shape().to_string() << " for "
                                     << image.shape().to_string());
  Placement p{};
  p.src = image.data();
  p.H = H;
  p.W = W;
  std::tie(p.new_h, p.new_w) = boxed_extents(H, W, size);
  p.off_y = (size - p.new_h) / 2;
  p.off_x = (size - p.new_w) / 2;
  p.dst = boxed.data();
  p.frame_h = p.frame_w = size;
  p.pad = 0.5f;
  place(p, C, pool);
}

Tensor letterbox(const Tensor& image, int64_t size) {
  TINCY_CHECK(image.shape().rank() == 3);
  TINCY_CHECK(size > 0);
  Tensor boxed(Shape{image.shape().channels(), size, size});
  letterbox_into(image, boxed, core::ThreadPool::shared());
  return boxed;
}

void unletterbox_box(float& bx, float& by, float& bw, float& bh,
                     int64_t orig_w, int64_t orig_h, int64_t boxed_size) {
  const auto [new_h, new_w] = boxed_extents(orig_h, orig_w, boxed_size);
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
