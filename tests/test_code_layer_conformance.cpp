// Differential conformance of the pixel-major code-domain layer engine
// (gemm/code_layer.hpp), of its threshold step and of the CHW <-> HWC
// conversions (gemm/layout.hpp).
//
// The engine reads and writes HWC code maps; its scalar oracle
// (code_layer_oracle.hpp) reads and writes CHW ones. Every case converts
// the oracle's input with oracle::to_hwc and its output likewise, so the
// engine is pinned bit for bit through transposes that share no code with
// gemm/layout.hpp. The sweep covers channel counts on every im2col field
// store (C = 1, 3, 8, 16, 32, 48, 64, 96, 512: packed fields, bit-by-bit
// fields and whole words), binary weights at 1–4 bits, ternary weights at
// 1–4 bits and bipolar W1A1, strides 1 and 2, padding 0 and 1, no pool and
// the 2/1, 2/2 and 3/2 pools, and batches of 1 and 3 frames.
//
// The engine streams bands of output rows through the shared pool, split
// by the layer's shape; the streamed cases run maps of many heights, so
// bands straddle pool windows (odd conv heights under a stride-2 pool,
// the 3/2 pool's top and left padding, the 2/1 pool's repeated last row
// and column), maps shorter than one band, and Tincy YOLO's L1 and L3 at
// 416, whose bands shard across threads. The threshold step is pinned to
// quant::ThresholdChannel::apply on both its int32 and int16 compares.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 1, one pass over
// the sweep), like the GEMM and bit-serial conformance suites; the
// tier2-conformance label marks this binary for the sanitizer presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "code_layer_oracle.hpp"
#include "core/rng.hpp"
#include "gemm/code_layer.hpp"
#include "gemm/layout.hpp"

namespace tincy {
namespace {

using oracle::LayerRig;
using oracle::Weights;

int conformance_reps() {
  if (const char* env = std::getenv("TINCY_CONFORMANCE_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 1;
}

const char* weights_name(Weights k) {
  switch (k) {
    case Weights::kBinary: return "binary";
    case Weights::kTernary: return "ternary";
    case Weights::kBipolar: return "bipolar";
  }
  return "?";
}

/// `batch` CHW maps of `channels` × `pixels`, each converted to HWC.
std::vector<uint8_t> to_hwc_frames(const std::vector<uint8_t>& chw,
                                   int64_t batch, int64_t channels,
                                   int64_t pixels) {
  std::vector<uint8_t> hwc(chw.size());
  const int64_t frame = channels * pixels;
  for (int64_t f = 0; f < batch; ++f)
    oracle::to_hwc(chw.data() + f * frame, channels, pixels,
                   hwc.data() + f * frame);
  return hwc;
}

constexpr uint8_t kSentinel = 0xA5;

/// Runs `rig`'s layer on `batch` random frames through the engine (HWC)
/// and the oracle (CHW), and checks every output byte; the engine must
/// not write past its output.
void expect_engine_matches_oracle(Rng& rng, const LayerRig& rig,
                                  int64_t pool_size, int64_t pool_stride,
                                  int64_t batch, const std::string& what) {
  const gemm::CodeLayer layer = rig.layer(pool_size, pool_stride);
  const gemm::ConvGeometry& g = rig.g;
  const std::vector<uint8_t> in = rig.random_codes(rng, batch);
  const std::vector<uint8_t> in_hwc =
      to_hwc_frames(in, batch, g.in_channels, g.in_height * g.in_width);
  const Shape out_shape = layer.out_shape();
  const int64_t out_n = out_shape.numel();
  const int64_t out_pixels = out_shape.height() * out_shape.width();
  std::vector<uint8_t> got(static_cast<size_t>(batch * out_n + 64),
                           kSentinel);
  gemm::run_code_layer(layer, in_hwc.data(), batch, got.data());

  std::vector<uint8_t> want(static_cast<size_t>(out_n));
  for (int64_t f = 0; f < batch; ++f) {
    const std::vector<uint8_t> chw = rig.oracle(
        in.data() + f * layer.in_numel(), pool_size, pool_stride);
    ASSERT_EQ(static_cast<int64_t>(chw.size()), out_n) << what;
    oracle::to_hwc(chw.data(), out_shape.channels(), out_pixels, want.data());
    for (int64_t i = 0; i < out_n; ++i)
      ASSERT_EQ(got[static_cast<size_t>(f * out_n + i)],
                want[static_cast<size_t>(i)])
          << what << ": frame " << f << " pixel " << i / out_shape.channels()
          << " channel " << i % out_shape.channels();
  }
  for (size_t i = static_cast<size_t>(batch * out_n); i < got.size(); ++i)
    ASSERT_EQ(got[i], kSentinel) << what << ": wrote past the output";
}

// --- The conversions on their own -------------------------------------------

TEST(LayoutConversion, TransposesMatchScalarLoops) {
  Rng rng(1);
  // Channel and pixel counts on and off the 16 × 16 tile grid.
  for (const int64_t channels : {1, 3, 8, 15, 16, 17, 32, 48, 64, 96, 512})
    for (const int64_t pixels : {1, 7, 16, 33, 169, 256}) {
      std::vector<uint8_t> chw(static_cast<size_t>(channels * pixels));
      for (auto& v : chw) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
      std::vector<uint8_t> want(chw.size()), got(chw.size(), kSentinel),
          back(chw.size(), kSentinel);
      oracle::to_hwc(chw.data(), channels, pixels, want.data());
      gemm::chw_to_hwc(chw.data(), channels, pixels, got.data());
      ASSERT_EQ(got, want) << channels << " x " << pixels;
      gemm::hwc_to_chw(got.data(), channels, pixels, back.data());
      ASSERT_EQ(back, chw) << channels << " x " << pixels;
      // hwc_to_chw on its own against its scalar loop.
      std::vector<uint8_t> want_chw(chw.size()), got_chw(chw.size());
      oracle::to_chw(chw.data(), channels, pixels, want_chw.data());
      gemm::hwc_to_chw(chw.data(), channels, pixels, got_chw.data());
      ASSERT_EQ(got_chw, want_chw) << channels << " x " << pixels;
    }
}

TEST(LayoutConversion, QuantiseAndDequantiseMatchTheTwoPassForms) {
  Rng rng(2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const quant::CodeGrid grid :
       {quant::CodeGrid{3, 0.5f, false}, quant::CodeGrid{1, 1.0f, false},
        quant::CodeGrid{8, 0.01f, false}, quant::CodeGrid{1, 0.25f, true}})
    for (const int64_t channels : {1, 5, 16, 64, 100})
      for (const int64_t pixels : {1, 9, 33, 169}) {
        const int64_t n = channels * pixels;
        std::vector<float> x(static_cast<size_t>(n));
        for (auto& v : x) v = rng.uniform(-1.0f, 5.0f);
        x[0] = nan;
        if (n > 2) x[static_cast<size_t>(n / 2)] = inf;
        if (n > 1) x[static_cast<size_t>(n - 1)] = -0.0f;
        std::vector<uint8_t> codes(static_cast<size_t>(n)),
            want(codes.size()), got(codes.size());
        grid.quantize(x.data(), n, codes.data());
        oracle::to_hwc(codes.data(), channels, pixels, want.data());
        gemm::quantize_to_hwc(grid, x.data(), channels, pixels, got.data());
        ASSERT_EQ(got, want) << "quantise " << channels << " x " << pixels;

        // want holds HWC codes: dequantise them back into CHW floats.
        std::vector<uint8_t> chw(codes.size());
        oracle::to_chw(want.data(), channels, pixels, chw.data());
        std::vector<float> want_f(static_cast<size_t>(n)), got_f(want_f.size());
        grid.dequantize(chw.data(), n, want_f.data());
        gemm::dequantize_to_chw(grid, want.data(), channels, pixels,
                                got_f.data());
        ASSERT_EQ(std::memcmp(got_f.data(), want_f.data(),
                              want_f.size() * sizeof(float)),
                  0)
            << "dequantise " << channels << " x " << pixels;
      }
}

// --- The engine through transposes -----------------------------------------

TEST(CodeLayerConformance, SweepMatchesOracleThroughTransposes) {
  struct Variant {
    Weights kind;
    int bits;
  };
  const Variant variants[] = {
      {Weights::kBinary, 1},  {Weights::kTernary, 1}, {Weights::kBinary, 2},
      {Weights::kTernary, 2}, {Weights::kBipolar, 1}, {Weights::kBinary, 3},
      {Weights::kTernary, 3}, {Weights::kBinary, 4},  {Weights::kTernary, 4}};
  constexpr int64_t kVariants = sizeof variants / sizeof variants[0];
  struct Pool {
    int64_t size, stride;
  };
  const Pool pools[] = {{0, 0}, {2, 1}, {2, 2}, {3, 2}};
  Rng rng(3);
  int64_t turn = 0;
  for (int rep = 0; rep < conformance_reps(); ++rep)
    for (const int64_t channels : {1, 3, 8, 16, 32, 48, 64, 96, 512})
      for (const int64_t stride : {1, 2})
        for (const int64_t pad : {0, 1})
          for (const Pool pool : pools) {
            // Each (C, stride, pad, pool) takes the next weight / bit
            // variant; bipolar layers cannot zero-pad, so a padded case
            // skips to the next one. Batches alternate 1 and 3.
            Variant v = variants[turn++ % kVariants];
            if (v.kind == Weights::kBipolar && pad != 0)
              v = variants[turn++ % kVariants];
            const int64_t batch = turn % 2 ? 3 : 1;
            const gemm::ConvGeometry g{channels,
                                       rng.uniform_int(3, 9),
                                       rng.uniform_int(3, 11),
                                       3,
                                       stride,
                                       pad};
            const int64_t rows = rng.uniform_int(1, 20);
            const LayerRig rig(rng, g, rows, v.bits, v.kind);
            expect_engine_matches_oracle(
                rng, rig, pool.size, pool.stride, batch,
                std::string(weights_name(v.kind)) + " A" +
                    std::to_string(v.bits) + " C=" + std::to_string(channels) +
                    " " + std::to_string(g.in_height) + "x" +
                    std::to_string(g.in_width) + " s" + std::to_string(stride) +
                    " p" + std::to_string(pad) + " pool " +
                    std::to_string(pool.size) + "/" +
                    std::to_string(pool.stride) + " rows " +
                    std::to_string(rows) + " batch " + std::to_string(batch));
            if (HasFatalFailure()) return;
          }
}

TEST(CodeLayerConformance, BatchBlocksStraddleFrames) {
  // 35 positions per frame, 105 columns in a batch of 3: the GEMM's
  // 16-column epilogue blocks end at 16, 32, 48, …, so blocks hold the
  // tail of one frame and the head of the next, whose codes must land in
  // each frame's own map.
  Rng rng(4);
  for (const int64_t channels : {16, 64})
    for (const Weights kind : {Weights::kBinary, Weights::kTernary}) {
      const LayerRig rig(rng, {channels, 5, 7, 3, 1, 1}, 19, 3, kind);
      ASSERT_NE(rig.g.num_patches() % 16, 0);
      expect_engine_matches_oracle(rng, rig, 0, 0, 3, "straddle, no pool");
      expect_engine_matches_oracle(rng, rig, 2, 1, 3, "straddle, pool 2/1");
    }
}

TEST(CodeLayerConformance, FcOverOneByOneMapIsLayoutFree) {
  // On a 1×1 map HWC and CHW are the same bytes: the oracle's input and
  // output go to and from the engine unconverted.
  Rng rng(5);
  for (const Weights kind :
       {Weights::kBinary, Weights::kTernary, Weights::kBipolar}) {
    const int bits = kind == Weights::kBipolar ? 1 : 3;
    const LayerRig rig(rng, {300, 1, 1, 1, 1, 0}, 37, bits, kind);
    const gemm::CodeLayer layer = rig.layer(0, 0);
    const int64_t batch = 3;
    const std::vector<uint8_t> in = rig.random_codes(rng, batch);
    std::vector<uint8_t> got(static_cast<size_t>(batch * rig.rows));
    gemm::run_code_layer(layer, in.data(), batch, got.data());
    for (int64_t f = 0; f < batch; ++f) {
      const std::vector<uint8_t> want = rig.oracle(in.data() + f * 300, 0, 0);
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             got.begin() + f * rig.rows))
          << weights_name(kind) << " frame " << f;
    }
  }
}

TEST(CodeLayerConformance, StreamedBandsMatchOracle) {
  // Big enough to shard (64 rows × 27 words per column), over conv heights
  // odd and even, so the bands' pool windows straddle them every way.
  struct Pool {
    int64_t size, stride;
  };
  Rng rng(7);
  int64_t turn = 0;
  for (const int64_t height : {5, 7, 9, 13, 17, 23})
    for (const Pool pool : {Pool{2, 2}, Pool{3, 2}, Pool{2, 1}})
      for (const int64_t stride : {1, 2})
        for (const int64_t pad : {0, 1}) {
          const gemm::ConvGeometry g{64, height, height + 4, 3, stride, pad};
          const Weights kind = turn % 3 == 2 ? Weights::kTernary
                                             : Weights::kBinary;
          const int64_t rows = turn % 2 ? 64 : 40;  // 40: a partial group
          const int64_t batch = turn % 4 == 1 ? 3 : 1;
          ++turn;
          const LayerRig rig(rng, g, rows, 3, kind);
          expect_engine_matches_oracle(
              rng, rig, pool.size, pool.stride, batch,
              std::string(weights_name(kind)) + " " +
                  std::to_string(height) + "x" + std::to_string(height + 4) +
                  " s" + std::to_string(stride) + " p" + std::to_string(pad) +
                  " pool " + std::to_string(pool.size) + "/" +
                  std::to_string(pool.stride) + " rows " +
                  std::to_string(rows) + " batch " + std::to_string(batch));
          if (HasFatalFailure()) return;
        }
}

TEST(CodeLayerConformance, KernelSizesOverRowRuns) {
  // Row runs (C a multiple of 8) move a kernel row of K·C bits per plane:
  // whole words (K·C a multiple of 64), one masked load (below 64) or
  // several pieces; a 17-tap kernel keeps per-pixel planes instead.
  Rng rng(12);
  int64_t turn = 0;
  for (const int64_t kernel : {1, 2, 5, 17})
    for (const int64_t channels : {8, 24, 64})
      for (const int64_t stride : {1, 2})
        for (const int64_t pad : {int64_t{0}, kernel / 2}) {
          const int64_t height = kernel + rng.uniform_int(0, 6);
          const gemm::ConvGeometry g{channels, height, height + 3, kernel,
                                     stride, pad};
          const Weights kind =
              turn % 2 ? Weights::kTernary : Weights::kBinary;
          const int64_t pool = turn % 3 == 0 ? 2 : 0;
          ++turn;
          const LayerRig rig(rng, g, 19, 3, kind);
          expect_engine_matches_oracle(
              rng, rig, pool, pool, 1 + turn % 2 * 2,
              "K=" + std::to_string(kernel) + " C=" +
                  std::to_string(channels) + " s" + std::to_string(stride) +
                  " p" + std::to_string(pad) + " pool " +
                  std::to_string(pool));
          if (HasFatalFailure()) return;
        }
}

TEST(CodeLayerConformance, LastPoolRepeatsTheEdgeAt13x13) {
  // Tincy YOLO's L9 + L10 in miniature: a 13 × 13 conv and the size-2,
  // stride-1 pool that keeps it 13 × 13 by repeating the last row and
  // column, deep enough to split into channel slices.
  Rng rng(8);
  for (const int64_t batch : {1, 3}) {
    const LayerRig rig(rng, {256, 13, 13, 3, 1, 1}, 512, 3, Weights::kBinary);
    expect_engine_matches_oracle(rng, rig, 2, 1, batch, "13x13 pool 2/1");
    if (HasFatalFailure()) return;
    expect_engine_matches_oracle(rng, rig, 0, 0, batch, "13x13 no pool");
    if (HasFatalFailure()) return;
  }
}

TEST(CodeLayerConformance, MapsShorterThanOneBand) {
  Rng rng(9);
  for (const int64_t height : {1, 2, 3})
    for (const int64_t pad : {0, 1}) {
      if (height + 2 * pad < 3) continue;  // no output
      const LayerRig rig(rng, {32, height, height + 1, 3, 1, pad}, 24, 2,
                         Weights::kTernary);
      for (const int64_t batch : {1, 3}) {
        expect_engine_matches_oracle(rng, rig, 0, 0, batch, "short, no pool");
        expect_engine_matches_oracle(rng, rig, 2, 2, batch, "short, pool 2/2");
        expect_engine_matches_oracle(rng, rig, 3, 2, batch, "short, pool 3/2");
        if (HasFatalFailure()) return;
      }
    }
}

TEST(CodeLayerConformance, TincyL1AndL3At416) {
  // The two largest hidden convs of zoo:tincy-w1a3 at 416 with their
  // pools: dozens of bands, claimed by every thread of the shared pool.
  Rng rng(10);
  {
    const LayerRig l1(rng, {16, 208, 208, 3, 1, 1}, 64, 3, Weights::kBinary);
    expect_engine_matches_oracle(rng, l1, 2, 2, 1, "L1 at 416");
  }
  if (HasFatalFailure()) return;
  const LayerRig l3(rng, {64, 104, 104, 3, 1, 1}, 64, 3, Weights::kBinary);
  expect_engine_matches_oracle(rng, l3, 2, 2, 1, "L3 at 416");
}

TEST(ThresholdConformance, BothComparesMatchApply) {
  // threshold_columns against ThresholdChannel::apply, one channel at a
  // time, for ascending and descending channels with sorted and unsorted
  // thresholds, thresholds at the int32 ends and around the int16 ones,
  // and accumulators up to ±K·(2^A − 1). With that bound the engine may
  // compare on int16; without one it compares on int32. Both must agree
  // with apply everywhere.
  Rng rng(11);
  const int32_t kMin = std::numeric_limits<int32_t>::min();
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  for (const int bits : {1, 2, 3, 4})
    for (const int64_t channels : {1, 7, 31, 32, 33, 64, 100}) {
      const int levels = (1 << bits) - 1;
      // The deepest patch whose bound still fits int16, as Tincy's L11.
      const int64_t k = gemm::kNarrowAccBound / levels;
      const int32_t bound = static_cast<int32_t>(k * levels);
      const int32_t special[] = {kMin,       kMax,       -32769, -32768,
                                 -32767,     32766,      32767,  32768,
                                 -bound - 1, -bound,     bound,  bound + 1,
                                 0,          1,          -1};
      std::vector<quant::ThresholdChannel> per_channel(
          static_cast<size_t>(channels));
      for (auto& ch : per_channel) {
        ch.ascending = rng.bernoulli(0.5);
        for (int l = 0; l < levels; ++l)
          ch.thresholds.push_back(
              rng.bernoulli(0.5)
                  ? special[rng.uniform_int(0, std::size(special) - 1)]
                  : static_cast<int32_t>(rng.uniform_int(-bound, bound)));
        if (rng.bernoulli(0.5)) {  // sorted the way the channel counts
          std::sort(ch.thresholds.begin(), ch.thresholds.end());
          if (!ch.ascending)
            std::reverse(ch.thresholds.begin(), ch.thresholds.end());
        }
      }
      const gemm::ThresholdTable table(per_channel);
      const int32_t edges[] = {-bound, -bound + 1, -1, 0, 1, bound - 1, bound};
      const int64_t columns = 23;
      std::vector<int32_t> acc(static_cast<size_t>(columns * channels));
      for (size_t i = 0; i < acc.size(); ++i)
        acc[i] = i % 3 == 0
                     ? edges[i / 3 % std::size(edges)]
                     : static_cast<int32_t>(rng.uniform_int(-bound, bound));
      for (const int64_t acc_bound : {int64_t{bound}, INT64_MAX}) {
        std::vector<uint8_t> got(acc.size(), kSentinel);
        gemm::threshold_columns(table, acc.data(), columns, got.data(),
                                acc_bound);
        for (int64_t j = 0; j < columns; ++j)
          for (int64_t c = 0; c < channels; ++c) {
            const size_t i = static_cast<size_t>(j * channels + c);
            ASSERT_EQ(got[i],
                      per_channel[static_cast<size_t>(c)].apply(acc[i]))
                << "A" << bits << " C=" << channels << " column " << j
                << " channel " << c << " acc " << acc[i] << " bound "
                << acc_bound;
          }
      }
    }
}

TEST(ThresholdConformance, EngineAtTheAccumulatorBound) {
  // Every tap at the top code and every weight +1 (rows 0–7) or −1 (rows
  // 8–15): the centre column's accumulators are exactly ±K·(2^A − 1) =
  // ±32,256 at Tincy's L11 depth, with thresholds on and around it.
  const gemm::ConvGeometry g{512, 3, 3, 3, 1, 1};
  const int64_t rows = 16, k = g.patch_size();
  Tensor real(Shape{rows, k});
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t i = 0; i < k; ++i) real[r * k + i] = r < 8 ? 1.0f : -1.0f;
  const gemm::BitSerialWeights packed =
      gemm::pack_bitserial(quant::binarize(real), g.kernel);
  const int32_t bound = static_cast<int32_t>(k * 7);
  ASSERT_EQ(bound, 32256);
  const int32_t around[] = {-bound - 1, -bound, -bound + 1, bound - 1,
                            bound,      bound + 1, 32767,   -32768,
                            std::numeric_limits<int32_t>::min(),
                            std::numeric_limits<int32_t>::max()};
  std::vector<quant::ThresholdChannel> per_channel(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    auto& ch = per_channel[static_cast<size_t>(r)];
    ch.ascending = r % 2 == 0;
    for (int l = 0; l < 7; ++l)
      ch.thresholds.push_back(around[(r + 3 * l) % std::size(around)]);
  }
  const gemm::ThresholdTable table(per_channel);
  gemm::CodeLayer layer;
  layer.geom = g;
  layer.bits = 3;
  layer.weights = &packed;
  layer.thresholds = &table;
  ASSERT_EQ(layer.accumulator_bound(), bound);
  const std::vector<uint8_t> in(static_cast<size_t>(layer.in_numel()), 7);
  std::vector<uint8_t> out(static_cast<size_t>(layer.out_shape().numel()));
  gemm::run_code_layer(layer, in.data(), 1, out.data());
  const int64_t centre = 1 * 3 + 1;  // the one column with no padding tap
  for (int64_t r = 0; r < rows; ++r)
    EXPECT_EQ(out[static_cast<size_t>(centre * rows + r)],
              per_channel[static_cast<size_t>(r)].apply(r < 8 ? bound
                                                              : -bound))
        << "row " << r;
}

TEST(CodeLayerConformance, PoolsWholeChannelVectors) {
  // max_pool_codes on its own, per channel count, against the oracle's
  // CHW pool through transposes.
  Rng rng(6);
  for (const int64_t channels : {1, 3, 8, 16, 32, 48, 64, 96, 512})
    for (const int64_t size : {2, 3})
      for (const int64_t stride : {1, 2}) {
        const gemm::PoolGeometry p{channels, rng.uniform_int(1, 9),
                                   rng.uniform_int(1, 9), size, stride};
        const int64_t in_px = p.in_height * p.in_width;
        const int64_t out_px = p.out_height() * p.out_width();
        std::vector<uint8_t> in(static_cast<size_t>(channels * in_px));
        for (auto& v : in) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
        std::vector<uint8_t> in_hwc(in.size()),
            chw(static_cast<size_t>(channels * out_px)), want(chw.size()),
            got(chw.size());
        oracle::to_hwc(in.data(), channels, in_px, in_hwc.data());
        oracle::max_pool_codes(p, in.data(), chw.data());
        oracle::to_hwc(chw.data(), channels, out_px, want.data());
        gemm::max_pool_codes(p, in_hwc.data(), got.data());
        ASSERT_EQ(got, want) << "C=" << channels << " pool " << size << "/"
                             << stride << " over " << p.in_height << "x"
                             << p.in_width;
      }
}

}  // namespace
}  // namespace tincy
