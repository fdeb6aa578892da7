#include "detect/nms.hpp"

#include <algorithm>
#include <cmath>

namespace tincy::detect {

std::vector<Detection> nms(std::vector<Detection> detections,
                           float iou_threshold) {
  // Descending score with NaN last: `a > b` alone is not a strict weak
  // ordering once a score is NaN, which makes the sort undefined.
  std::stable_sort(detections.begin(), detections.end(),
                   [](const Detection& a, const Detection& b) {
                     const float sa = a.score(), sb = b.score();
                     return !std::isnan(sa) && (std::isnan(sb) || sa > sb);
                   });
  std::vector<Detection> kept;
  kept.reserve(detections.size());
  for (const Detection& d : detections) {
    bool suppressed = false;
    for (const Detection& k : kept) {
      if (k.class_id == d.class_id && iou(k.box, d.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

}  // namespace tincy::detect
