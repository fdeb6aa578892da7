#include "detect/decode.hpp"

#include <cmath>

#include "core/errors.hpp"

namespace tincy::detect {
namespace {

/// anchor · e^t / cells, the extent decode_region gives a box side.
float extent(float anchor, float t, float cells) {
  return anchor * std::exp(t) / cells;
}

/// The largest exponent t whose extent is finite. e^t is monotone, so
/// every finite extent has t at or below it: clamping t there keeps those
/// extents bit for bit and turns +inf, NaN and overflowing t into the
/// largest finite extent. Bisects between 0 (e^0 · anchor / cells is
/// finite for a finite anchor) and 89 (e^89 overflows float).
float max_exponent(float anchor, float cells) {
  float lo = 0.0f, hi = 89.0f;
  if (!std::isfinite(extent(anchor, lo, cells))) return lo;
  while (std::nextafter(lo, hi) != hi) {
    const float mid = lo + (hi - lo) / 2.0f;
    (std::isfinite(extent(anchor, mid, cells)) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

std::vector<Detection> decode_region(const Tensor& feature_map,
                                     const nn::RegionConfig& cfg,
                                     float threshold) {
  TINCY_CHECK(feature_map.shape().rank() == 3);
  const int64_t H = feature_map.shape().height();
  const int64_t W = feature_map.shape().width();
  const int64_t cell = H * W;
  const int64_t per_anchor = cfg.coords + 1 + cfg.classes;
  TINCY_CHECK(feature_map.shape().channels() == cfg.num * per_anchor);
  TINCY_CHECK(static_cast<int64_t>(cfg.anchors.size()) == 2 * cfg.num);

  std::vector<Detection> dets;
  for (int64_t a = 0; a < cfg.num; ++a) {
    const float* base = feature_map.data() + a * per_anchor * cell;
    const float pw = cfg.anchors[static_cast<size_t>(2 * a)];
    const float ph = cfg.anchors[static_cast<size_t>(2 * a + 1)];
    const float fw = static_cast<float>(W), fh = static_cast<float>(H);
    const float tw_max = max_exponent(pw, fw), th_max = max_exponent(ph, fh);
    for (int64_t row = 0; row < H; ++row) {
      for (int64_t col = 0; col < W; ++col) {
        const int64_t i = row * W + col;
        const float objectness = base[cfg.coords * cell + i];
        if (objectness < threshold) continue;

        Detection d;
        d.objectness = objectness;
        d.box.x = (static_cast<float>(col) + base[0 * cell + i]) /
                  static_cast<float>(W);
        d.box.y = (static_cast<float>(row) + base[1 * cell + i]) /
                  static_cast<float>(H);
        // std::fmin maps a NaN exponent to the bound as well.
        d.box.w = extent(pw, std::fmin(base[2 * cell + i], tw_max), fw);
        d.box.h = extent(ph, std::fmin(base[3 * cell + i], th_max), fh);

        // Best class for this anchor slot.
        const float* cls = base + (cfg.coords + 1) * cell;
        int best = 0;
        float best_p = cls[i];
        for (int64_t c = 1; c < cfg.classes; ++c) {
          if (cls[c * cell + i] > best_p) {
            best_p = cls[c * cell + i];
            best = static_cast<int>(c);
          }
        }
        d.class_id = best;
        d.class_prob = best_p;
        if (d.score() >= threshold) dets.push_back(d);
      }
    }
  }
  return dets;
}

}  // namespace tincy::detect
