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
  // Candidates of one class only ever meet that class's survivors, so the
  // kept boxes are bucketed by class: class k's survivors fill
  // boxes[first[k], next[k]), a run sized by its candidate count.
  const size_t n = detections.size();
  std::vector<int> classes(n);
  for (size_t i = 0; i < n; ++i) classes[i] = detections[i].class_id;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  std::vector<size_t> bucket(n), first(classes.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<size_t>(
        std::lower_bound(classes.begin(), classes.end(),
                         detections[i].class_id) -
        classes.begin());
    ++first[bucket[i] + 1];
  }
  for (size_t k = 1; k < first.size(); ++k) first[k] += first[k - 1];
  std::vector<size_t> next(first.begin(), first.end() - 1);
  std::vector<Box> boxes(n);

  // Survivors are appended in sorted order, so the output order and every
  // decision are those of one greedy pass over all kept boxes.
  std::vector<Detection> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Detection& d = detections[i];
    const size_t k = bucket[i];
    bool suppressed = false;
    for (size_t j = first[k]; j < next[k]; ++j) {
      if (iou(boxes[j], d.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;
    boxes[next[k]++] = d.box;
    kept.push_back(d);
  }
  return kept;
}

}  // namespace tincy::detect
