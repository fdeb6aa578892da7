#pragma once

/// \file layout.hpp
/// The two feature-map layouts and the one pair of conversions between
/// them.
///
/// Float maps (Tensor, every float layer) are CHW: one plane of H·W
/// values per channel. Activation codes across the hidden ladder are HWC,
/// pixel-major with the channels innermost (pixel p's C codes at
/// [p·C, (p+1)·C)), the order in which the paper's sliding-window unit
/// streams a feature map into the MVTU and in which the threshold
/// epilogue computes an output column. On a 1×1 map (an FC layer) the two
/// layouts coincide.
///
/// Codes change layout only where they meet floats (Network's quantise
/// and dequantise, ConvLayer's float forward) and at the fabric's public
/// CHW boundary (fabric::QnnAccelerator::run_layer_batched). Every such
/// conversion is one of the two functions below; the mapped forms apply
/// a per-element function (a quantiser or dequantiser) in the same pass.
/// Both walk the map in 16 × 16 tiles, so each tile's reads and writes
/// stay in L1; the transposed element is always a byte code, and a full
/// byte tile is transposed in SSE2 registers.

#include <algorithm>
#include <cstdint>

#include "quant/thresholds.hpp"

namespace tincy::gemm {

/// Tile edge of the blocked conversions.
inline constexpr int64_t kLayoutTile = 16;

/// dst[j·dst_stride + i] = src[i·src_stride + j] for i < rows, j < cols
/// (rows, cols <= kLayoutTile); a full tile is one SSE2 register transpose.
void transpose_tile(const uint8_t* src, int64_t src_stride, int64_t rows,
                    int64_t cols, uint8_t* dst, int64_t dst_stride);

/// out[p·channels + c] = in[c·pixels + p]: a CHW byte map to HWC.
void chw_to_hwc(const uint8_t* in, int64_t channels, int64_t pixels,
                uint8_t* out);
/// out[c·pixels + p] = in[p·channels + c]: an HWC byte map to CHW.
void hwc_to_chw(const uint8_t* in, int64_t channels, int64_t pixels,
                uint8_t* out);

/// out[p·channels + c] = f(in[c·pixels + p]) for a byte-valued f (a
/// quantiser): each tile's channel rows are mapped in one contiguous,
/// vectorisable pass into a byte tile, which is then transposed.
template <typename In, typename F>
void chw_to_hwc(const In* in, int64_t channels, int64_t pixels, uint8_t* out,
                F f) {
  constexpr int64_t T = kLayoutTile;
  uint8_t tile[T * T];
  for (int64_t p0 = 0; p0 < pixels; p0 += T) {
    const int64_t pw = std::min(T, pixels - p0);
    for (int64_t c0 = 0; c0 < channels; c0 += T) {
      const int64_t cn = std::min(T, channels - c0);
      for (int64_t c = 0; c < cn; ++c) {
        const In* row = in + (c0 + c) * pixels + p0;
        uint8_t* t = tile + c * T;
        if (pw == T)  // a fixed-length row vectorises at -O2
          for (int64_t p = 0; p < T; ++p) t[p] = f(row[p]);
        else
          for (int64_t p = 0; p < pw; ++p) t[p] = f(row[p]);
      }
      transpose_tile(tile, T, cn, pw, out + p0 * channels + c0, channels);
    }
  }
}

/// out[c·pixels + p] = f(in[p·channels + c]) for byte codes (a
/// dequantiser): each tile is transposed into a byte tile whose channel
/// rows are then mapped in one contiguous, vectorisable pass.
template <typename Out, typename F>
void hwc_to_chw(const uint8_t* in, int64_t channels, int64_t pixels, Out* out,
                F f) {
  constexpr int64_t T = kLayoutTile;
  uint8_t tile[T * T];
  for (int64_t c0 = 0; c0 < channels; c0 += T) {
    const int64_t cn = std::min(T, channels - c0);
    for (int64_t p0 = 0; p0 < pixels; p0 += T) {
      const int64_t pw = std::min(T, pixels - p0);
      transpose_tile(in + p0 * channels + c0, channels, pw, cn, tile, T);
      for (int64_t c = 0; c < cn; ++c) {
        Out* row = out + (c0 + c) * pixels + p0;
        const uint8_t* t = tile + c * T;
        if (pw == T)  // a fixed-length row vectorises at -O2
          for (int64_t p = 0; p < T; ++p) row[p] = f(t[p]);
        else
          for (int64_t p = 0; p < pw; ++p) row[p] = f(t[p]);
      }
    }
  }
}

/// A CHW float map quantised onto `g` as HWC codes: byte-identical to
/// g.quantize() followed by chw_to_hwc, in one pass.
void quantize_to_hwc(const quant::CodeGrid& g, const float* in,
                     int64_t channels, int64_t pixels, uint8_t* codes);
/// HWC codes on `g` dequantised into a CHW float map: byte-identical to
/// hwc_to_chw followed by g.dequantize(), in one pass.
void dequantize_to_chw(const quant::CodeGrid& g, const uint8_t* codes,
                       int64_t channels, int64_t pixels, float* out);

}  // namespace tincy::gemm
