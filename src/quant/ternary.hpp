#pragma once

/// \file ternary.hpp
/// Ternary weight networks (Li et al., TWN) — the "smallest possible
/// retreat" from full binarization discussed in the paper's related work
/// and adopted by Alemdar / Prost-Boucle et al. for FPGAs. Included so the
/// accelerator substrate covers the full precision spectrum the paper
/// positions itself in.

#include <vector>

#include "core/bitvector.hpp"
#include "core/tensor.hpp"

namespace tincy::quant {

/// A matrix of {−1, 0, +1} weights stored as two bit-planes per row:
/// nonzero mask and sign (1 = positive). Per-row scale alpha follows TWN.
struct TernaryMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<BitVector> nonzero;  ///< bit c set iff w_rc != 0.
  std::vector<BitVector> positive; ///< bit c set iff w_rc > 0 (subset of nonzero).
  std::vector<float> row_scale;

  float value(int64_t r, int64_t c) const {
    const auto ri = static_cast<size_t>(r);
    if (!nonzero[ri].get(c)) return 0.0f;
    return positive[ri].get(c) ? row_scale[ri] : -row_scale[ri];
  }

  /// Fraction of zero weights — the sparsity ternarization buys.
  double sparsity() const;
};

/// Ternarizes with the TWN rule: threshold Δ_r = 0.7 · mean_c |w_rc|;
/// weights with |w| ≤ Δ become 0, the rest keep their sign. The scale is
/// alpha_r = mean |w| over surviving weights (1.0 if with_scale is false).
TernaryMatrix ternarize(const Tensor& weights, bool with_scale = true);

/// Reconstructs the float matrix for reference computations.
Tensor dequantize(const TernaryMatrix& m);

}  // namespace tincy::quant
