#include "detect/map.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tincy::detect {
namespace {

struct ScoredDetection {
  float score;
  int image;
  const Detection* det;
};

double eleven_point_ap(const std::vector<double>& recall,
                       const std::vector<double>& precision) {
  double ap = 0.0;
  for (int k = 0; k <= 10; ++k) {
    const double r = k / 10.0;
    double best = 0.0;
    for (size_t i = 0; i < recall.size(); ++i)
      if (recall[i] >= r) best = std::max(best, precision[i]);
    ap += best / 11.0;
  }
  return ap;
}

double all_point_ap(std::vector<double> recall, std::vector<double> precision) {
  // Standard VOC >=2010 scheme: monotonize precision from the right, then
  // integrate over recall steps.
  for (size_t i = precision.size(); i-- > 1;)
    precision[i - 1] = std::max(precision[i - 1], precision[i]);
  double ap = 0.0;
  double prev_r = 0.0;
  for (size_t i = 0; i < recall.size(); ++i) {
    ap += (recall[i] - prev_r) * precision[i];
    prev_r = recall[i];
  }
  return ap;
}

}  // namespace

double average_precision(const std::vector<ImageEval>& images, int class_id,
                         float iou_threshold, ApStyle style) {
  // Collect this class's detections across all images and count positives.
  std::vector<ScoredDetection> dets;
  int64_t num_gt = 0;
  for (size_t img = 0; img < images.size(); ++img) {
    for (const auto& d : images[img].detections)
      if (d.class_id == class_id)
        dets.push_back({d.score(), static_cast<int>(img), &d});
    for (const auto& g : images[img].ground_truth)
      if (g.class_id == class_id) ++num_gt;
  }
  if (num_gt == 0) return 0.0;

  // Descending score with NaN last, the total order detect::nms sorts by:
  // `a > b` alone is not a strict weak ordering once a score is NaN.
  std::stable_sort(dets.begin(), dets.end(),
                   [](const ScoredDetection& a, const ScoredDetection& b) {
                     return !std::isnan(a.score) &&
                            (std::isnan(b.score) || a.score > b.score);
                   });

  // Greedy matching with per-image "already claimed" flags.
  std::vector<std::vector<bool>> claimed(images.size());
  for (size_t img = 0; img < images.size(); ++img)
    claimed[img].assign(images[img].ground_truth.size(), false);

  std::vector<double> recall, precision;
  recall.reserve(dets.size());
  precision.reserve(dets.size());
  int64_t tp = 0, fp = 0;
  for (const auto& sd : dets) {
    const auto& gts = images[static_cast<size_t>(sd.image)].ground_truth;
    int best = -1;
    float best_iou = iou_threshold;
    for (size_t g = 0; g < gts.size(); ++g) {
      if (gts[g].class_id != class_id) continue;
      const float overlap = iou(sd.det->box, gts[g].box);
      if (overlap >= best_iou &&
          !claimed[static_cast<size_t>(sd.image)][g]) {
        best_iou = overlap;
        best = static_cast<int>(g);
      }
    }
    if (best >= 0) {
      claimed[static_cast<size_t>(sd.image)][static_cast<size_t>(best)] = true;
      ++tp;
    } else {
      ++fp;
    }
    recall.push_back(static_cast<double>(tp) / static_cast<double>(num_gt));
    precision.push_back(static_cast<double>(tp) /
                        static_cast<double>(tp + fp));
  }
  if (recall.empty()) return 0.0;
  return style == ApStyle::kVoc2007ElevenPoint
             ? eleven_point_ap(recall, precision)
             : all_point_ap(std::move(recall), std::move(precision));
}

double mean_average_precision(const std::vector<ImageEval>& images,
                              int num_classes, float iou_threshold,
                              ApStyle style) {
  double sum = 0.0;
  int counted = 0;
  for (int c = 0; c < num_classes; ++c) {
    int64_t num_gt = 0;
    for (const auto& img : images)
      for (const auto& g : img.ground_truth)
        if (g.class_id == c) ++num_gt;
    if (num_gt == 0) continue;  // class absent from the dataset
    sum += average_precision(images, c, iou_threshold, style);
    ++counted;
  }
  return counted > 0 ? sum / counted : 0.0;
}

}  // namespace tincy::detect
