#pragma once

/// \file nms.hpp
/// Greedy per-class non-maximum suppression.

#include <vector>

#include "detect/box.hpp"

namespace tincy::detect {

/// Returns the detections surviving greedy NMS: within each class, boxes
/// are visited in descending score order and any box overlapping an
/// already-kept same-class box with IoU > `iou_threshold` is dropped.
/// Output is sorted by descending score; NaN scores sort last, in input
/// order.
std::vector<Detection> nms(std::vector<Detection> detections,
                           float iou_threshold = 0.45f);

}  // namespace tincy::detect
