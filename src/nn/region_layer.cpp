#include "nn/region_layer.hpp"

#include <cmath>

#include "nn/activation.hpp"

namespace tincy::nn {

RegionLayer::RegionLayer(const RegionConfig& cfg, Shape input_shape)
    : cfg_(cfg), in_shape_(input_shape) {
  TINCY_CHECK(input_shape.rank() == 3);
  const int64_t expected = cfg.num * (cfg.coords + 1 + cfg.classes);
  TINCY_CHECK_MSG(input_shape.channels() == expected,
                  "region expects " << expected << " channels, got "
                                    << input_shape.channels());
  if (cfg_.anchors.empty()) cfg_.anchors.assign(static_cast<size_t>(2 * cfg.num), 0.5f);
  TINCY_CHECK(static_cast<int64_t>(cfg_.anchors.size()) == 2 * cfg.num);
}

void RegionLayer::forward(const Tensor& in, Tensor& out) const {
  TINCY_CHECK(in.shape() == in_shape_);
  TINCY_CHECK(out.shape() == in_shape_);
  const int64_t H = in_shape_.height(), W = in_shape_.width();
  const int64_t cell = H * W;
  const int64_t per_anchor = cfg_.coords + 1 + cfg_.classes;

  out = in;
  for (int64_t a = 0; a < cfg_.num; ++a) {
    float* base = out.data() + a * per_anchor * cell;
    // Logistic on x, y and objectness; w, h stay raw (exponentiated later).
    for (int64_t i = 0; i < cell; ++i) {
      base[0 * cell + i] = apply(Activation::kLogistic, base[0 * cell + i]);
      base[1 * cell + i] = apply(Activation::kLogistic, base[1 * cell + i]);
      base[cfg_.coords * cell + i] =
          apply(Activation::kLogistic, base[cfg_.coords * cell + i]);
    }
    if (cfg_.softmax) {
      // Per-cell softmax across the class channels.
      float* cls = base + (cfg_.coords + 1) * cell;
      for (int64_t i = 0; i < cell; ++i) {
        float max_v = cls[i];
        for (int64_t c = 1; c < cfg_.classes; ++c)
          max_v = std::max(max_v, cls[c * cell + i]);
        float sum = 0.0f;
        for (int64_t c = 0; c < cfg_.classes; ++c) {
          const float e = std::exp(cls[c * cell + i] - max_v);
          cls[c * cell + i] = e;
          sum += e;
        }
        for (int64_t c = 0; c < cfg_.classes; ++c) cls[c * cell + i] /= sum;
      }
    }
  }
}

}  // namespace tincy::nn
