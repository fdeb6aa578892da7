#pragma once

/// \file code_layer.hpp
/// The code-domain W1A<bits> layer: one engine behind the CPU golden model
/// (nn::ConvLayer, kQuantReference, and nn::Network's code handoff) and
/// the fabric accelerator (fabric::QnnAccelerator::run_layer_batched).
///
/// The engine streams, as the fabric's sliding-window unit feeds its MVTU
/// and the pool unit pools what comes out (FINN-R's SWU → MVTU → pool with
/// line buffers): one run_code_layer call is one parallel_for over bands
/// of output rows, and a band never leaves its worker. For each band the
/// worker builds the bit-planes of the band's input rows, halo included
/// (pixel_planes), gathers its packed patch columns (patch_columns), runs
/// the bit-serial tile kernel on them 16 columns at a time, turns each
/// block's accumulators into output codes while they are hot (a table that
/// compares the channels of a column together, on int16 lanes when the
/// layer's accumulators fit) and, when the layer pools, max-pools the
/// band's codes straight into the output map. No whole-map buffer exists:
/// each band's scratch comes from its worker's thread arena, so a warm call
/// does not touch the heap.
///
/// A band is a run of pooled output rows (of output positions when the
/// layer does not pool); a pool whose windows overlap (stride < size)
/// recomputes the conv rows two bands share. Deep layers on small maps
/// also split their channels into slices of whole row groups, so every
/// thread gets work. The split follows from the layer's shape, the batch
/// and the pool's threads alone.
///
/// Layout. Codes in and out are pixel-major (HWC, gemm/layout.hpp): pixel
/// p's C codes are the bytes [p·C, (p+1)·C), and `batch` maps are
/// stacked. That is the order each stage produces and consumes them in:
/// the threshold step computes an output column's channels together and
/// stores them as one run, the gather reads each input pixel's channels
/// as one run, and the pool maxes whole channel vectors. There is no
/// other layout; callers holding CHW maps convert with
/// chw_to_hwc / hwc_to_chw.
///
/// Pooling on codes is exact: on a grid with positive scale the code
/// order is the order of the real values, so the max of the codes is the
/// code of the max.

#include <cstdint>
#include <span>
#include <vector>

#include "core/shape.hpp"
#include "gemm/bitserial.hpp"
#include "quant/thresholds.hpp"

namespace tincy::gemm {

/// Per-channel thresholds (quant::ThresholdChannel) flattened so the
/// comparisons vectorise across channels. Row k holds threshold k of every
/// channel. A descending channel (level += acc <= t) is stored
/// complemented: ~x = −x − 1 reverses the int32 order without overflow,
/// so acc <= t ⟺ ~acc >= ~t and one comparison serves both directions.
///
/// `narrow` is the same table clamped to int16. For accumulators with
/// |acc| <= kNarrowAccBound, ~acc and acc lie in [−32767, 32766], so a
/// threshold past either end of int16 decides every comparison as its
/// clamped value does: the int16 compare is exact.
struct ThresholdTable {
  int64_t channels = 0;
  int64_t levels = 0;               ///< thresholds per channel
  std::vector<int32_t> thresholds;  ///< levels × channels, row-major
  std::vector<int16_t> narrow;      ///< `thresholds` clamped to int16
  std::vector<int32_t> flip;        ///< per channel: 0 ascending, ~0 not

  ThresholdTable() = default;
  /// Every channel must hold the same number of thresholds.
  explicit ThresholdTable(std::span<const quant::ThresholdChannel> channels);
};

/// The largest |accumulator| the int16 threshold compare is exact for.
/// Every Tincy YOLO hidden conv stays under it: the deepest, L11 and L12,
/// reach 4608 · 7 = 32,256.
inline constexpr int64_t kNarrowAccBound = 32766;

/// The output codes of `count` accumulator columns: level[jj·channels + c]
/// is the code channel c's thresholds give acc[jj·channels + c]. Each
/// column's codes are one HWC pixel, so a block of columns lands in the
/// output map as one contiguous run. `acc_bound` is the largest |acc| the
/// caller can hand in: up to kNarrowAccBound the channels are compared 32
/// at a time on int16 lanes (AVX-512BW, when cpuid has it), otherwise 16
/// at a time on int32 (an AVX2 build when cpuid has it).
void threshold_columns(const ThresholdTable& table, const int32_t* acc,
                       int64_t count, uint8_t* level,
                       int64_t acc_bound = INT64_MAX);

/// Darknet max-pool geometry over a code map (implicit total padding of
/// size − 1: a size-2 pool pads right/bottom, so 13×13 at stride 1 stays
/// 13×13).
struct PoolGeometry {
  int64_t channels = 0;
  int64_t in_height = 0;
  int64_t in_width = 0;
  int64_t size = 2;
  int64_t stride = 2;

  int64_t out_height() const {
    return (in_height + (size - 1) - size) / stride + 1;
  }
  int64_t out_width() const {
    return (in_width + (size - 1) - size) / stride + 1;
  }
};

/// Max pool of one HWC code map: each output pixel's channel vector is
/// the elementwise max of its window's in-image pixels. Padding taps never
/// win (codes are unsigned and every window holds an in-image tap).
/// Sharded over output rows for large maps. A layer whose conv pools
/// (CodeLayer::pool_size) pools each band in the same pass instead.
void max_pool_codes(const PoolGeometry& p, const uint8_t* in, uint8_t* out);

/// One W1A<bits> conv (an FC layer is a 1×1 conv over a 1×1 map) with an
/// optional max pool on its output codes, which then never exist unpooled.
/// Views, not owners: the weights and the table belong to the caller
/// (ConvLayer's caches, fabric::Mvtu).
struct CodeLayer {
  ConvGeometry geom;
  int bits = 1;          ///< input code bits (1 for bipolar)
  bool bipolar = false;  ///< ±1 input codes (bits 1, binary weights, pad 0)
  const BitSerialWeights* weights = nullptr;  ///< rows × geom.patch_size()
  const ThresholdTable* thresholds = nullptr;  ///< one channel per row
  int64_t pool_size = 0;  ///< 0: no pool
  int64_t pool_stride = 0;

  int64_t channels() const { return weights->rows; }
  /// Pool over the conv output (meaningful when pool_size > 0).
  PoolGeometry pool() const {
    return {channels(), geom.out_height(), geom.out_width(), pool_size,
            pool_stride};
  }
  int64_t in_numel() const {
    return geom.in_channels * geom.in_height * geom.in_width;
  }
  /// The largest |accumulator| the layer can produce: K · (2^bits − 1),
  /// or K for bipolar codes (threshold_columns' acc_bound).
  int64_t accumulator_bound() const {
    return geom.patch_size() * (bipolar ? 1 : (int64_t{1} << bits) - 1);
  }
  /// Output map shape (after the pool when there is one), as C × H × W;
  /// the codes themselves are stored HWC.
  Shape out_shape() const;
};

/// Runs `layer` over `batch` stacked HWC input code maps (in_numel() bytes
/// each) into `batch` stacked HWC output code maps (out_shape().numel()
/// bytes each), as one parallel_for over the frames' bands (see the file
/// comment); each frame's codes are exactly those of a batch-1 call.
void run_code_layer(const CodeLayer& layer, const uint8_t* in, int64_t batch,
                    uint8_t* out);

}  // namespace tincy::gemm
