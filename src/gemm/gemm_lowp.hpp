#pragma once

/// \file gemm_lowp.hpp
/// Self-contained low-precision GEMM with the gemmlowp contract the paper's
/// 8-bit NEON path builds on: uint8 operands with zero-point offsets,
/// int32 accumulation, and an optional integer requantization pipeline
/// producing uint8 output.

#include <cstdint>

#include "core/tensor.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {

/// C_i32 (M×N) = Σ_k (A[i,k] − lhs_zero) · (B[k,j] − rhs_zero); plain
/// scalar reference form.
void gemm_lowp_i32(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                   int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                   int32_t* C);

/// Full quantized GEMM: int32 accumulation followed by the requantization
/// pipeline into uint8 output codes.
void gemm_lowp_u8(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                  int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                  const quant::Requantizer& requant, uint8_t* C);

/// Quantized convolution in the paper's §III-D style — the one 8-bit conv
/// path. The image is quantized with `input_params`, then im2col'd strip
/// by strip straight into packed RHS panels ("quantize the image data
/// while arranging the multiplicand matrix") and multiplied against the
/// layer's cached weight panels (pack_lhs of uint8 codes with
/// `weight_params`; the packed zero_point must be weight_params.zero_point)
/// with exact int32 accumulation. The accumulators are dequantized to float
/// output, the form the surrounding float network consumes; `bias`
/// (length weights.rows, may be null) is added in real space. Column
/// panels are sharded over core::ThreadPool::shared(); zero heap
/// allocations in steady state.
void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhsView& weights,
                            const quant::AffineParams& weight_params,
                            const float* bias, float* out);

/// Strip im2col straight into a packed K×kNr RHS panel: columns
/// [col0, col0+width) of the full column matrix (width <= kNr), row stride
/// kNr, lanes past `width` filled with `pad_value`, per-column code sums
/// into `col_sums` (kNr entries). Iterates (oh, ow) incrementally — no
/// div/mod per element. The fused conv path's "quantize while arranging
/// the multiplicand" without an intermediate column matrix.
void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums);

}  // namespace tincy::gemm
