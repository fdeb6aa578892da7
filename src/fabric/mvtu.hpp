#pragma once

/// \file mvtu.hpp
/// Matrix–Vector–Threshold Unit: the compute core of the FINN-style
/// accelerator. Weights are bit-packed rows — ±1 (binary) or {−1, 0, +1}
/// (ternary: the "smallest possible retreat" from full binarization the
/// paper's related work discusses, with a nonzero mask beside the sign
/// plane). Activations arrive as A-bit codes which the unit processes
/// bit-serially: the dot product is the weighted sum of per-bit-plane
/// AND-popcount terms (gemm/bitserial.hpp holds the arithmetic). The
/// raw accumulator then passes the per-channel threshold unit which
/// subsumes bias, batch normalization and the quantized activation.

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/folding.hpp"
#include "gemm/bitserial.hpp"
#include "quant/thresholds.hpp"

namespace tincy::fabric {

using quant::ThresholdChannel;

/// Encoding of the incoming activation codes.
enum class ActEncoding {
  kUnsigned,  ///< code ∈ [0, 2^A − 1], real = scale · code
  kBipolar,   ///< A = 1, code ∈ {0, 1}, real = ±scale (W1A1)
};

/// One MVTU configured for a layer's weight matrix.
class Mvtu {
 public:
  /// `weights`: rows × cols ±1 matrix; `thresholds`: one channel per row;
  /// `act_bits_in`: precision of incoming activation codes. `kernel` is
  /// the conv's spatial size K when cols = C·K² (1 for FC layers).
  Mvtu(const quant::BinaryMatrix& weights,
       std::vector<ThresholdChannel> thresholds, int act_bits_in,
       ActEncoding encoding = ActEncoding::kUnsigned, int64_t kernel = 1);
  /// Ternary weights: zero weights contribute nothing. Unsigned codes.
  Mvtu(const quant::TernaryMatrix& weights,
       std::vector<ThresholdChannel> thresholds, int act_bits_in,
       int64_t kernel = 1);

  int64_t rows() const { return weights_.rows; }
  int64_t cols() const { return weights_.cols; }
  int act_bits_in() const { return act_bits_in_; }
  ActEncoding encoding() const { return encoding_; }

  /// Processes one input column (cols() A-bit codes in Darknet order
  /// c·K² + t) into rows() output codes, exactly as the hardware datapath
  /// would.
  void compute(std::span<const uint8_t> column, std::span<uint8_t> out) const;

  /// Raw accumulators before thresholding (for tests and debugging).
  void accumulate(std::span<const uint8_t> column,
                  std::span<int32_t> acc) const;

  /// Batched form over `batch` stacked input columns (`columns` holds
  /// batch × cols() codes, `out` receives batch × rows() codes). Models a
  /// weight-resident pass: the weights are loaded once per batch.
  /// Bit-identical to calling compute() per frame.
  void compute_batch(std::span<const uint8_t> columns, int64_t batch,
                     std::span<uint8_t> out) const;
  void accumulate_batch(std::span<const uint8_t> columns, int64_t batch,
                        std::span<int32_t> acc) const;

  /// Convolution form: `planes` holds frames × positions columns packed
  /// by gemm::im2col_bitplanes (frame-major); writes thresholded codes in
  /// CHW order, out[(f·rows() + r)·positions + p].
  void compute_planes(const uint64_t* planes, int64_t frames,
                      int64_t positions, std::span<uint8_t> out) const;

  /// Cycle cost of one column under the given folding (the ternary unit's
  /// second weight plane rides along in the same cycle).
  int64_t cycles_per_column(const Folding& f) const {
    return fold_cycles_per_vector({rows(), cols()}, f, act_bits_in_);
  }

 private:
  /// Packs `batch` Darknet-ordered columns into bit-plane columns.
  std::vector<uint64_t> pack_columns(std::span<const uint8_t> columns,
                                     int64_t batch) const;

  gemm::BitSerialWeights weights_;
  std::vector<ThresholdChannel> thresholds_;
  int act_bits_in_;
  ActEncoding encoding_;
  int64_t kernel_;
};

}  // namespace tincy::fabric
