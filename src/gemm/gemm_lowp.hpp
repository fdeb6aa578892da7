#pragma once

/// \file gemm_lowp.hpp
/// The 8-bit conv driver, the one threaded path of every 8-bit layer: the
/// gemmlowp contract the paper's 8-bit NEON path builds on (uint8 operands
/// with zero-point offsets, exact int32 accumulation) on the packed tile
/// of gemm_packed.hpp, with a float epilogue that writes either the
/// layer's floats or the next layer's codes. gemm_lowp_i32 is its scalar
/// oracle.

#include <cstdint>
#include <optional>

#include "core/activation.hpp"
#include "core/tensor.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "quant/affine.hpp"
#include "quant/thresholds.hpp"

namespace tincy::gemm {

/// C_i32 (M×N) = Σ_k (A[i,k] − lhs_zero) · (B[k,j] − rhs_zero); plain
/// scalar reference form.
void gemm_lowp_i32(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                   int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                   int32_t* C);

/// The per-element float chain of an 8-bit conv's epilogue. For output
/// channel c and its exact int32 accumulator acc,
///   v = input_scale · weight_scale · acc + 0
///   y = snap(act(v · mul[c] + add[c] + bias[c]))
/// which is the layer's batch-norm (mul, add), bias and activation in the
/// order the float layers apply them. Null arrays read as 1 (mul) and 0
/// (add, bias); `snap` is the layer's own A-bit output grid, if it has one.
struct LowpEpilogue {
  const float* mul = nullptr;
  const float* add = nullptr;
  const float* bias = nullptr;
  Activation act = Activation::kLinear;
  std::optional<quant::CodeGrid> snap;
};

/// The §III-D first layer's on-the-fly calibration: the frame's min/max,
/// the affine grid covering it (choose_affine_params) and the frame's
/// codes on that grid. Both passes are sharded over
/// core::ThreadPool::shared() for large frames; the result is the serial
/// one bit for bit.
quant::AffineParams quantize_frame(const float* image, int64_t n,
                                   uint8_t* codes);

/// quantize_frame over the floats of an HWC map of activation codes on
/// the exact grid `g` (`channels` × `pixels`), without making the floats:
/// returns the same calibration and writes the same 8-bit codes, CHW, to
/// `frame`. Dequantise is monotone on an exact grid, so the frame's
/// min/max are the dequantised min/max codes, and each code's 8-bit code
/// is an entry of a table built with AffineParams::quantize on the
/// dequantised code, applied inside the one HWC → CHW pass.
quant::AffineParams quantize_code_frame(const quant::CodeGrid& g,
                                        const uint8_t* codes,
                                        int64_t channels, int64_t pixels,
                                        uint8_t* frame);

/// Quantized convolution in the paper's §III-D style — the one 8-bit conv
/// driver. The quantized image `qimage` (codes on `input_params`, e.g.
/// from quantize_frame) is im2col'd strip by strip straight into packed
/// RHS panels ("quantize the image data while arranging the multiplicand
/// matrix") and multiplied against the layer's cached weight panels
/// (pack_lhs of uint8 codes with `weight_params`; the packed zero_point
/// must be weight_params.zero_point) with exact int32 accumulation. Each
/// panel's accumulators then run the epilogue chain in registers and go
/// to one of two sinks:
///
///  * the float sink (fused_conv_lowp_f32out) writes y, the layer's float
///    activation;
///  * the code sink (fused_conv_lowp_codes) writes grid.quantize(y), the
///    codes a consumer reading the unsigned `grid` gets by quantising that
///    activation — byte-identical to the float sink followed by
///    CodeGrid::quantize and chw_to_hwc.
///
/// Float output is C' × (out_h·out_w) row-major (CHW); code output is
/// pixel-major (HWC, gemm/layout.hpp), the layout every code consumer
/// reads. Column panels are sharded over core::ThreadPool::shared(); zero
/// heap allocations in steady state.
void fused_conv_lowp_f32out(const uint8_t* qimage, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhs& weights,
                            const quant::AffineParams& weight_params,
                            const LowpEpilogue& epilogue, float* out);
void fused_conv_lowp_codes(const uint8_t* qimage, const ConvGeometry& g,
                           const quant::AffineParams& input_params,
                           const PackedLhs& weights,
                           const quant::AffineParams& weight_params,
                           const LowpEpilogue& epilogue,
                           const quant::CodeGrid& grid, uint8_t* out);

/// Strip im2col straight into a packed K×kNr RHS panel: columns
/// [col0, col0+width) of the full column matrix (width <= kNr), row stride
/// kNr, lanes past `width` filled with `pad_value`, per-column code sums
/// into `col_sums` (kNr entries). When the panel's columns share one
/// output row (any map whose output width is a multiple of kNr, like
/// Tincy YOLO's L0), each panel row is one strided copy: straight from
/// the image row, from a pad-filled stage holding the row's in-bounds
/// pixels when taps fall off a side, or pad values alone on a padding
/// row. A 1×1, stride-1, unpadded conv (L13) copies one contiguous run of
/// each plane wherever the panel starts. Other rows (panels that cross
/// output rows, strides above 2) walk (oh, ow) incrementally with a
/// bounds check per element.
void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums);

}  // namespace tincy::gemm
