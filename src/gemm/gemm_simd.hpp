#pragma once

/// \file gemm_simd.hpp
/// The two float convolutions: the generic im2col + GEMM oracle and the
/// paper's fused, sliced im2col+GEMM runtime path (§III-D).
///
/// The fused kernel slices the multiplicand matrix into vertical strips as
/// wide as the vector lane count, produces each strip with im2col on the
/// fly into a small re-used buffer, and immediately consumes it computing
/// the corresponding strip of the result row by row — the data-locality
/// optimization that gave the paper a 2.1× speedup even in floating point.

#include <cstdint>

#include "core/tensor.hpp"
#include "gemm/im2col.hpp"

namespace tincy::gemm {

/// Fused sliced im2col + GEMM convolution in f32:
/// out (M × outH·outW) = weights (M × patch) ∗ image, with optional bias
/// (length M, may be null). The im2col strip buffer is patch×4 floats and
/// is recycled across strips, never materializing the full column matrix.
void fused_conv_f32(const float* image, const ConvGeometry& g,
                    const float* weights, int64_t out_channels,
                    const float* bias, float* out);

/// Reference (unfused) conv for validation: materializes im2col then GEMM.
void conv_via_im2col_f32(const float* image, const ConvGeometry& g,
                         const float* weights, int64_t out_channels,
                         const float* bias, float* out);

}  // namespace tincy::gemm
