#pragma once

/// \file mvtu.hpp
/// Matrix–Vector–Threshold Unit: the compute core of the FINN-style
/// accelerator. Its weight memory holds bit-packed rows — ±1 (binary) or
/// {−1, 0, +1} (ternary: the "smallest possible retreat" from full
/// binarization the paper's related work discusses, with a nonzero mask
/// beside the sign plane) — and its threshold memory the per-channel
/// thresholds that subsume bias, batch normalization and the quantized
/// activation. Activations arrive as A-bit codes which the unit processes
/// bit-serially: the dot product is the weighted sum of per-bit-plane
/// AND-popcount terms.
///
/// The unit holds those two memories, packed as the code-domain layer
/// engine consumes them (gemm/code_layer.hpp: bit-serial weights and a
/// vectorised threshold table), and the cycle cost of its folding. The
/// arithmetic itself is gemm::run_code_layer, the same function the CPU
/// golden model runs: a banded stream in which each band's columns meet
/// the weights and the thresholds block by block, as the sliding window
/// feeds the MVTU.

#include <cstdint>
#include <vector>

#include "fabric/folding.hpp"
#include "gemm/code_layer.hpp"
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
  /// `act_bits_in`: precision of incoming activation codes (bipolar
  /// `encoding` needs 1 bit; the engine call names the encoding it runs).
  /// `kernel` is the conv's spatial size K when cols = C·K² (1 for FC
  /// layers).
  Mvtu(const quant::BinaryMatrix& weights,
       const std::vector<ThresholdChannel>& thresholds, int act_bits_in,
       ActEncoding encoding = ActEncoding::kUnsigned, int64_t kernel = 1);
  /// Ternary weights: zero weights contribute nothing. Unsigned codes.
  Mvtu(const quant::TernaryMatrix& weights,
       const std::vector<ThresholdChannel>& thresholds, int act_bits_in,
       int64_t kernel = 1);

  int64_t rows() const { return weights_.rows; }
  int64_t cols() const { return weights_.cols; }
  int act_bits_in() const { return act_bits_in_; }

  /// The weight and threshold memories, as gemm::CodeLayer views them.
  const gemm::BitSerialWeights& weights() const { return weights_; }
  const gemm::ThresholdTable& thresholds() const { return thresholds_; }

  /// Cycle cost of one column under the given folding (the ternary unit's
  /// second weight plane rides along in the same cycle).
  int64_t cycles_per_column(const Folding& f) const {
    return fold_cycles_per_vector({rows(), cols()}, f, act_bits_in_);
  }

 private:
  gemm::BitSerialWeights weights_;
  gemm::ThresholdTable thresholds_;
  int act_bits_in_;
};

}  // namespace tincy::fabric
