#pragma once

/// \file binary.hpp
/// Binary (±1) weight quantization as used by the paper's hidden layers
/// ("the network weights are, indeed, binarized") and pioneered by
/// Hubara et al. / Rastegari et al.

#include <vector>

#include "core/bitvector.hpp"
#include "core/tensor.hpp"

namespace tincy::quant {

/// A matrix of ±1 weights stored bit-packed row by row: bit=1 encodes +1,
/// bit=0 encodes −1. Optional per-row scaling factors (XNOR-Net style
/// alpha = mean |w|) let dequantized magnitudes approximate the originals.
struct BinaryMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<BitVector> row_bits;  ///< rows entries of cols bits each.
  std::vector<float> row_scale;     ///< rows entries; 1.0 for plain ±1.

  /// Signed value of element (r, c): ±row_scale[r].
  float value(int64_t r, int64_t c) const {
    return row_bits[static_cast<size_t>(r)].get(c)
               ? row_scale[static_cast<size_t>(r)]
               : -row_scale[static_cast<size_t>(r)];
  }
};

/// Binarizes a float matrix (rank-2 tensor) by sign; w==0 maps to +1.
/// If with_scale, each row carries alpha_r = mean_c |w_rc| (XNOR-Net),
/// otherwise all scales are 1.
BinaryMatrix binarize(const Tensor& weights, bool with_scale = false);

/// Reconstructs the (scaled) ±1 float matrix for reference computations.
Tensor dequantize(const BinaryMatrix& m);

}  // namespace tincy::quant
