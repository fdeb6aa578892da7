#pragma once

/// \file sliding_window.hpp
/// Sliding Window Unit (SWU): streams the kernel-application footprints of
/// a CHW code tensor to the MVTU — the hardware realization of im2col.
/// Functionally the footprints are packed as bit-plane columns by
/// gemm::im2col_bitplanes; this unit carries the geometry and the cost of
/// streaming them.

#include <cstdint>

#include "gemm/im2col.hpp"

namespace tincy::fabric {

class SlidingWindowUnit {
 public:
  /// `g` describes the convolution geometry; padding taps emit code 0
  /// (the exact zero of the unsigned activation grid).
  explicit SlidingWindowUnit(const gemm::ConvGeometry& g);

  int64_t num_columns() const { return geom_.num_patches(); }
  int64_t column_size() const { return geom_.patch_size(); }

  /// Cycles to stream one column at `simd` codes per cycle.
  int64_t cycles_per_column(int64_t simd) const {
    return (column_size() + simd - 1) / simd;
  }

  const gemm::ConvGeometry& geometry() const { return geom_; }

 private:
  gemm::ConvGeometry geom_;
};

}  // namespace tincy::fabric
