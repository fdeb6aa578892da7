#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "detect/box.hpp"
#include "detect/decode.hpp"
#include "detect/map.hpp"
#include "detect/nms.hpp"
#include "frame_glue_oracle.hpp"

namespace tincy::detect {
namespace {

TEST(Box, IntersectionAndIou) {
  const Box a{0.5f, 0.5f, 0.4f, 0.4f};
  EXPECT_NEAR(iou(a, a), 1.0f, 1e-5f);
  const Box disjoint{0.1f, 0.1f, 0.1f, 0.1f};
  EXPECT_FLOAT_EQ(intersection(a, disjoint), 0.0f);
  EXPECT_FLOAT_EQ(iou(a, disjoint), 0.0f);
  // Half-overlapping boxes of equal size: inter = 0.5·A, union = 1.5·A.
  const Box shifted{0.7f, 0.5f, 0.4f, 0.4f};
  EXPECT_NEAR(iou(a, shifted), 0.5f / 1.5f, 1e-5f);
}

TEST(Box, IouProperties) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Box a{rng.uniform(0.2f, 0.8f), rng.uniform(0.2f, 0.8f),
                rng.uniform(0.05f, 0.4f), rng.uniform(0.05f, 0.4f)};
    const Box b{rng.uniform(0.2f, 0.8f), rng.uniform(0.2f, 0.8f),
                rng.uniform(0.05f, 0.4f), rng.uniform(0.05f, 0.4f)};
    const float v = iou(a, b);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f + 1e-6f);
    EXPECT_FLOAT_EQ(v, iou(b, a));  // symmetry
    EXPECT_LE(intersection(a, b), std::min(a.area(), b.area()) + 1e-6f);
  }
}

TEST(Box, DegenerateBoxesHaveZeroIou) {
  const Box zero{0.5f, 0.5f, 0.0f, 0.0f};
  EXPECT_FLOAT_EQ(iou(zero, zero), 0.0f);
}

TEST(Nms, SuppressesSameClassOverlaps) {
  std::vector<Detection> dets;
  dets.push_back({{0.5f, 0.5f, 0.4f, 0.4f}, 0, 0.9f, 1.0f});
  dets.push_back({{0.52f, 0.5f, 0.4f, 0.4f}, 0, 0.8f, 1.0f});  // overlap, worse
  dets.push_back({{0.52f, 0.5f, 0.4f, 0.4f}, 1, 0.7f, 1.0f});  // other class
  dets.push_back({{0.1f, 0.1f, 0.1f, 0.1f}, 0, 0.6f, 1.0f});   // far away
  const auto kept = nms(dets, 0.45f);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_FLOAT_EQ(kept[0].objectness, 0.9f);  // sorted by score
  EXPECT_EQ(kept[1].class_id, 1);
  EXPECT_FLOAT_EQ(kept[2].objectness, 0.6f);
}

TEST(Nms, EmptyAndSingle) {
  EXPECT_TRUE(nms({}).empty());
  const auto kept = nms({{{0.5f, 0.5f, 0.2f, 0.2f}, 0, 0.5f, 1.0f}});
  EXPECT_EQ(kept.size(), 1u);
}

TEST(Nms, OutputSortedDescending) {
  Rng rng(2);
  std::vector<Detection> dets;
  for (int i = 0; i < 50; ++i)
    dets.push_back({{rng.uniform(0.1f, 0.9f), rng.uniform(0.1f, 0.9f), 0.05f,
                     0.05f},
                    static_cast<int>(rng.uniform_int(0, 2)),
                    rng.uniform(0.0f, 1.0f), 1.0f});
  const auto kept = nms(dets, 0.45f);
  for (size_t i = 1; i < kept.size(); ++i)
    EXPECT_GE(kept[i - 1].score(), kept[i].score());
}

TEST(Nms, NonFiniteScoresSortByTotalOrder) {
  // NaN breaks `a > b` as a strict weak ordering; NMS must still sort
  // deterministically: +inf first, then finite scores descending, then
  // -inf, with NaN last in input order. Boxes are disjoint and of distinct
  // classes so nothing is suppressed.
  const float nan = std::nanf(""), inf = INFINITY;
  const float scores[] = {0.5f, nan, -inf, inf, 0.9f, nan, 0.1f, nan, 0.5f};
  std::vector<Detection> dets;
  for (int i = 0; i < 9; ++i)
    dets.push_back({{0.05f + 0.1f * i, 0.5f, 0.05f, 0.05f}, i, scores[i],
                    1.0f});
  const auto kept = nms(dets, 0.45f);
  ASSERT_EQ(kept.size(), dets.size());
  const int order[] = {3, 4, 0, 8, 6, 2, 1, 5, 7};
  for (size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].class_id, order[i]) << "position " << i;
}

TEST(Nms, NanScoresStillSuppressOverlaps) {
  // A NaN-scored box is visited last, so a finite-scored overlapping box
  // of its class is kept and the NaN one is dropped.
  std::vector<Detection> dets;
  dets.push_back({{0.5f, 0.5f, 0.4f, 0.4f}, 0, std::nanf(""), 1.0f});
  dets.push_back({{0.52f, 0.5f, 0.4f, 0.4f}, 0, 0.3f, 1.0f});
  const auto kept = nms(dets, 0.45f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].objectness, 0.3f);
}

// --- NMS against the scalar oracle (frame_glue_oracle.hpp) -------------

/// Bitwise equality of two detection lists (NaN scores included).
void expect_same_detections(const std::vector<Detection>& got,
                            const std::vector<Detection>& want) {
  ASSERT_EQ(got.size(), want.size());
  auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
  for (size_t i = 0; i < got.size(); ++i) {
    const Detection& g = got[i];
    const Detection& w = want[i];
    ASSERT_TRUE(g.class_id == w.class_id && bits(g.box.x) == bits(w.box.x) &&
                bits(g.box.y) == bits(w.box.y) &&
                bits(g.box.w) == bits(w.box.w) &&
                bits(g.box.h) == bits(w.box.h) &&
                bits(g.objectness) == bits(w.objectness) &&
                bits(g.class_prob) == bits(w.class_prob))
        << "position " << i << ": class " << g.class_id << " vs "
        << w.class_id;
  }
}

/// How the boxes of a random detection set are laid out.
enum class Layout { kMixed, kAllOverlapping, kDisjoint };

/// Seeded detections with NaN and ±inf scores, tied scores, negative and
/// extreme class ids, on one of three box layouts.
std::vector<Detection> random_detections(uint64_t seed, int n,
                                         Layout layout) {
  Rng rng(seed);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const int classes[] = {0, 1, 2, -1, -7, INT_MIN, INT_MAX, 1000000000};
  std::vector<Detection> dets;
  for (int i = 0; i < n; ++i) {
    Detection d;
    switch (layout) {
      case Layout::kMixed:
        d.box = {rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                 rng.uniform(0.0f, 0.5f), rng.uniform(0.0f, 0.5f)};
        break;
      case Layout::kAllOverlapping:
        d.box = {0.5f + rng.uniform(-0.01f, 0.01f),
                 0.5f + rng.uniform(-0.01f, 0.01f), 0.4f, 0.4f};
        break;
      case Layout::kDisjoint:
        d.box = {0.01f + 0.02f * static_cast<float>(i % 50),
                 0.01f + 0.02f * static_cast<float>(i / 50), 0.01f, 0.01f};
        break;
    }
    d.class_id = classes[rng.uniform_int(0, 7)];
    // Scores from a small set tie often; some are non-finite outright or
    // through inf · 0.
    const float values[] = {0.25f, 0.5f, 0.75f, nan, inf, -inf, 0.0f};
    d.objectness = rng.bernoulli(0.5) ? values[rng.uniform_int(0, 6)]
                                      : rng.uniform(0.0f, 1.0f);
    d.class_prob = rng.bernoulli(0.1) ? 0.0f : rng.uniform(0.5f, 1.0f);
    dets.push_back(d);
  }
  return dets;
}

TEST(NmsOracle, BucketedByClassMatchesScalarGreedyPass) {
  for (const Layout layout :
       {Layout::kMixed, Layout::kAllOverlapping, Layout::kDisjoint})
    for (const int n : {0, 1, 2, 17, 600})
      for (const float threshold : {0.0f, 0.3f, 0.45f, 1.0f})
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE(::testing::Message()
                       << "layout " << static_cast<int>(layout) << " n " << n
                       << " threshold " << threshold << " seed " << seed);
          const auto dets = random_detections(seed * 977 + n, n, layout);
          expect_same_detections(nms(dets, threshold),
                                 oracle::nms(dets, threshold));
        }
}

TEST(Decode, RecoversPlantedBox) {
  // Plant one confident detection at cell (1, 2) of a 4x4 grid.
  nn::RegionConfig cfg;
  cfg.classes = 3;
  cfg.num = 2;
  cfg.anchors = {1.0f, 1.0f, 2.0f, 2.0f};
  const int64_t per_anchor = 4 + 1 + 3;
  Tensor map(Shape{cfg.num * per_anchor, 4, 4});
  // Background objectness ~0 everywhere (map already squashed form):
  // decode_region consumes RegionLayer output, so write squashed values.
  map.fill(0.0f);
  const int64_t cell = 16;
  const int64_t i = 1 * 4 + 2;  // row 1, col 2
  const int64_t a = 1;          // anchor 1 (prior 2x2 cells)
  float* base = map.data() + a * per_anchor * cell;
  base[0 * cell + i] = 0.5f;   // σ(tx): centered in the cell
  base[1 * cell + i] = 0.5f;
  base[2 * cell + i] = 0.0f;   // tw = 0 → w = anchor/W
  base[3 * cell + i] = 0.0f;
  base[4 * cell + i] = 0.9f;   // objectness
  base[(5 + 2) * cell + i] = 1.0f;  // class 2

  const auto dets = decode_region(map, cfg, 0.5f);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].class_id, 2);
  EXPECT_NEAR(dets[0].box.x, 2.5f / 4.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.y, 1.5f / 4.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.w, 2.0f / 4.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.h, 2.0f / 4.0f, 1e-5f);
  EXPECT_FLOAT_EQ(dets[0].objectness, 0.9f);
}

TEST(Decode, ThresholdFiltersLowObjectness) {
  nn::RegionConfig cfg;
  cfg.classes = 2;
  cfg.num = 1;
  cfg.anchors = {1.0f, 1.0f};
  Tensor map(Shape{7, 2, 2});
  map.fill(0.1f);
  EXPECT_TRUE(decode_region(map, cfg, 0.5f).empty());
}

TEST(Decode, NonFiniteAndHugeExponentsGiveFiniteBoxes) {
  // One anchor of 3.42 × 4.41 cells on a 1×8 grid; each cell carries its
  // own tw/th. Finite extents must equal the unclamped formula bit for
  // bit; the rest must come out finite.
  nn::RegionConfig cfg;
  cfg.classes = 1;
  cfg.num = 1;
  cfg.anchors = {3.42f, 4.41f};
  const float nan = std::nanf(""), inf = std::numeric_limits<float>::infinity();
  const float t[] = {nan, inf, -inf, 1e30f, 100.0f, 85.0f, 3.0f, -3.0f};
  Tensor map(Shape{6, 1, 8});
  map.fill(0.5f);
  const int64_t cell = 8;
  for (int64_t i = 0; i < cell; ++i) {
    map[2 * cell + i] = t[i];
    map[3 * cell + i] = t[cell - 1 - i];
    map[5 * cell + i] = 1.0f;  // class probability
  }
  const auto dets = decode_region(map, cfg, 0.1f);
  ASSERT_EQ(dets.size(), 8u);
  float largest_w = 0.0f;
  for (size_t k = 0; k < dets.size(); ++k) {
    const Box& b = dets[k].box;
    EXPECT_TRUE(std::isfinite(b.w) && std::isfinite(b.h)) << "cell " << k;
    const float tw = t[k], th = t[cell - 1 - k];
    const float w = 3.42f * std::exp(tw) / 8.0f;
    const float h = 4.41f * std::exp(th) / 1.0f;
    if (std::isfinite(w)) {
      EXPECT_EQ(b.w, w) << "cell " << k;
    }
    if (std::isfinite(h)) {
      EXPECT_EQ(b.h, h) << "cell " << k;
    }
    largest_w = std::max(largest_w, b.w);
  }
  // NaN, +inf and the overflowing exponents saturate to one extent, the
  // largest of all.
  for (const size_t k : {0u, 1u, 3u, 4u}) EXPECT_EQ(dets[k].box.w, largest_w);
  EXPECT_EQ(dets[2].box.w, 0.0f);  // e^−inf
}

TEST(Decode, ExtentJustBelowOverflowIsKept) {
  // With a unit anchor on a 1×1 grid e^t itself is the extent: the largest
  // t with a finite e^t keeps its value, the next float saturates to it.
  nn::RegionConfig cfg;
  cfg.classes = 1;
  cfg.num = 1;
  cfg.anchors = {1.0f, 1.0f};
  float t = 88.0f;
  while (std::isfinite(std::exp(std::nextafter(t, 100.0f))))
    t = std::nextafter(t, 100.0f);
  Tensor map(Shape{6, 1, 1});
  map.fill(0.9f);
  map[2] = t;
  map[3] = std::nextafter(t, 100.0f);
  const auto dets = decode_region(map, cfg, 0.1f);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].box.w, std::exp(t));
  EXPECT_EQ(dets[0].box.h, std::exp(t));
}

// --- mAP ---

ImageEval perfect_image(int classes) {
  ImageEval img;
  for (int c = 0; c < classes; ++c) {
    const Box box{0.2f + 0.2f * static_cast<float>(c), 0.5f, 0.15f, 0.15f};
    img.ground_truth.push_back({box, c});
    img.detections.push_back({box, c, 0.9f, 1.0f});
  }
  return img;
}

TEST(Map, PerfectDetectionsScoreOne) {
  const std::vector<ImageEval> images{perfect_image(3), perfect_image(3)};
  EXPECT_NEAR(mean_average_precision(images, 3), 1.0, 1e-9);
  EXPECT_NEAR(mean_average_precision(images, 3, 0.5f, ApStyle::kAllPoint),
              1.0, 1e-9);
}

TEST(Map, NoDetectionsScoreZero) {
  ImageEval img;
  img.ground_truth.push_back({{0.5f, 0.5f, 0.2f, 0.2f}, 0});
  EXPECT_DOUBLE_EQ(mean_average_precision({img}, 1), 0.0);
}

TEST(Map, MisplacedDetectionIsFalsePositive) {
  ImageEval img;
  img.ground_truth.push_back({{0.2f, 0.2f, 0.2f, 0.2f}, 0});
  img.detections.push_back({{0.8f, 0.8f, 0.2f, 0.2f}, 0, 0.9f, 1.0f});
  EXPECT_DOUBLE_EQ(average_precision({img}, 0), 0.0);
}

TEST(Map, DuplicateDetectionsPenalized) {
  // VOC protocol: the second detection of an already-claimed object is a
  // false positive, so AP < 1 even though the object is found.
  ImageEval img;
  const Box box{0.5f, 0.5f, 0.3f, 0.3f};
  img.ground_truth.push_back({box, 0});
  img.detections.push_back({box, 0, 0.9f, 1.0f});
  img.detections.push_back({box, 0, 0.8f, 1.0f});
  const double ap = average_precision({img}, 0, 0.5f, ApStyle::kAllPoint);
  EXPECT_NEAR(ap, 1.0, 1e-9);  // recall reaches 1 at precision 1 first
  // With reversed scores the duplicate ranks first → precision drops.
  ImageEval img2;
  img2.ground_truth.push_back({box, 0});
  img2.detections.push_back({{0.9f, 0.9f, 0.05f, 0.05f}, 0, 0.95f, 1.0f});
  img2.detections.push_back({box, 0, 0.8f, 1.0f});
  const double ap2 = average_precision({img2}, 0, 0.5f, ApStyle::kAllPoint);
  EXPECT_LT(ap2, 1.0);
  EXPECT_NEAR(ap2, 0.5, 1e-9);  // TP at rank 2: precision 1/2 at recall 1
}

TEST(Map, ElevenPointVsAllPointOrdering) {
  // Construct a half-recall case: 2 objects, 1 found.
  ImageEval img;
  img.ground_truth.push_back({{0.3f, 0.3f, 0.2f, 0.2f}, 0});
  img.ground_truth.push_back({{0.7f, 0.7f, 0.2f, 0.2f}, 0});
  img.detections.push_back({{0.3f, 0.3f, 0.2f, 0.2f}, 0, 0.9f, 1.0f});
  const double ap11 = average_precision({img}, 0);
  const double ap_all =
      average_precision({img}, 0, 0.5f, ApStyle::kAllPoint);
  // Recall 0.5 at precision 1: 11-point = 6/11, all-point = 0.5.
  EXPECT_NEAR(ap11, 6.0 / 11.0, 1e-9);
  EXPECT_NEAR(ap_all, 0.5, 1e-9);
}

TEST(Map, ClassesWithoutGroundTruthSkipped) {
  const std::vector<ImageEval> images{perfect_image(2)};
  // num_classes=5 but only classes 0..1 appear: mAP over present classes.
  EXPECT_NEAR(mean_average_precision(images, 5), 1.0, 1e-9);
}

TEST(Map, NanScoresRankLast) {
  // One object, found only by a NaN-scored detection; a confident false
  // positive and a −inf-scored miss rank ahead of it. NaN ranks last, as
  // in nms, so the true positive arrives at rank 3: all-point AP = 1/3.
  const float nan = std::nanf(""), inf = std::numeric_limits<float>::infinity();
  ImageEval img;
  const Box box{0.5f, 0.5f, 0.3f, 0.3f};
  img.ground_truth.push_back({box, 0});
  img.detections.push_back({box, 0, nan, 1.0f});
  img.detections.push_back({{0.1f, 0.1f, 0.05f, 0.05f}, 0, 0.9f, 1.0f});
  img.detections.push_back({{0.9f, 0.9f, 0.05f, 0.05f}, 0, -inf, 1.0f});
  EXPECT_NEAR(average_precision({img}, 0, 0.5f, ApStyle::kAllPoint),
              1.0 / 3.0, 1e-9);
  // Huge and +inf scores rank first: the object found at rank 1.
  ImageEval img2;
  img2.ground_truth.push_back({box, 0});
  img2.detections.push_back({{0.1f, 0.1f, 0.05f, 0.05f}, 0, nan, 1.0f});
  img2.detections.push_back({{0.9f, 0.9f, 0.05f, 0.05f}, 0,
                             std::numeric_limits<float>::max(), 1.0f});
  img2.detections.push_back({box, 0, inf, 1.0f});
  EXPECT_NEAR(average_precision({img2}, 0, 0.5f, ApStyle::kAllPoint), 1.0,
              1e-9);
}

TEST(Map, IouThresholdMatters) {
  ImageEval img;
  img.ground_truth.push_back({{0.5f, 0.5f, 0.4f, 0.4f}, 0});
  // Slightly shifted detection: IoU ≈ 0.63.
  img.detections.push_back({{0.55f, 0.5f, 0.4f, 0.4f}, 0, 0.9f, 1.0f});
  EXPECT_GT(average_precision({img}, 0, 0.5f), 0.9);
  EXPECT_DOUBLE_EQ(average_precision({img}, 0, 0.9f), 0.0);
}

}  // namespace
}  // namespace tincy::detect
