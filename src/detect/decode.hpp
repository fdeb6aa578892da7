#pragma once

/// \file decode.hpp
/// Decodes the squashed region-layer feature map into detections — the
/// "object boxing" stage of the paper's pipeline (Fig. 5, stage N+2).

#include <vector>

#include "core/tensor.hpp"
#include "detect/box.hpp"
#include "nn/region_layer.hpp"

namespace tincy::detect {

/// Extracts detections above `threshold` from a region-layer output map
/// (already logistic/softmax squashed by RegionLayer::forward). YOLOv2
/// geometry: bx = (col + σ(tx))/W, by = (row + σ(ty))/H, bw = pw·e^{tw}/W,
/// bh = ph·e^{th}/H with (pw, ph) the anchor priors in cell units. The
/// exponents are clamped to the largest value that keeps bw and bh finite,
/// so +inf, NaN or huge tw/th give the largest finite extent and every
/// finite extent is unchanged.
std::vector<Detection> decode_region(const Tensor& feature_map,
                                     const nn::RegionConfig& cfg,
                                     float threshold);

}  // namespace tincy::detect
