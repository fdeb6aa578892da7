#pragma once

/// \file region_layer.hpp
/// YOLOv2 "region" detection head. The feature map carries `num` anchor
/// slots per grid cell, each with (x, y, w, h, objectness) and per-class
/// scores — 5 × (4+1+20) = 125 channels for Pascal VOC, the output
/// geometry named in the paper's Fig. 4 (height=13 width=13 channel=125).
/// forward() applies the logistic/softmax squashing; decoding squashed
/// maps into boxes lives in tincy::detect.

#include <vector>

#include "nn/layer.hpp"

namespace tincy::nn {

struct RegionConfig {
  int64_t classes = 20;
  int64_t coords = 4;
  int64_t num = 5;                ///< anchors per cell
  std::vector<float> anchors;     ///< 2·num anchor extents in cell units
  bool softmax = true;
};

class RegionLayer final : public Layer {
 public:
  RegionLayer(const RegionConfig& cfg, Shape input_shape);

  std::string type_name() const override { return "region"; }
  Shape output_shape() const override { return in_shape_; }
  void forward(const Tensor& in, Tensor& out) const override;

  const RegionConfig& config() const { return cfg_; }

 private:
  RegionConfig cfg_;
  Shape in_shape_;
};

}  // namespace tincy::nn
