#pragma once

/// \file gemm_packed.hpp
/// The packed operands and the one micro-kernel call of the 8-bit conv
/// driver (gemm_lowp.hpp: run_lowp behind fused_conv_lowp_f32out/_codes).
///
/// The naive gemm_lowp_i32 streams the RHS column-strided and re-reads
/// every operand from memory once per multiply; the paper's §III-D CPU
/// path instead follows gemmlowp: pack both operands into contiguous
/// panels once, then run a register-blocked micro-kernel whose inner loop
/// is nothing but sequential loads and widening multiply-accumulates:
///
///  * pack_lhs — the LHS (a layer's weight codes) is packed into kMr-row
///    K-major interleaved panels *once per layer* and cached next to the
///    layer's other derived quantized forms;
///  * im2col_panel_u8 (gemm_lowp.hpp) gathers the RHS — kNr columns of the
///    quantised image's im2col — straight into one K×kNr panel;
///  * gemm_lowp_packed_panel runs the exact-i32 micro-kernel on a range of
///    kMr row blocks against that panel. It uses the zero-point decomposition
///    C[i,j] = Σ a·b − za·colsum_j − zb·rowsum_i + K·za·zb
///    so the inner loop is pure unsigned u8×u8 multiply-accumulates into
///    32-bit lanes — widening MACs (VMULL.U8/VADDW) in the NEON lane
///    model, VPMADDWD over k-pairs on x86 (two panel rows interleaved
///    into s16 column pairs against a broadcast LHS pair) — exact, and
///    bit-identical to gemm_lowp_i32. The tile ships in runtime-dispatched
///    width variants (scalar baseline, portable NEON lane model, AVX2 and
///    AVX-512BW intrinsics — see gemm/kernels.hpp), all bit-identical,
///    the contract enforced by tests/test_gemm_conformance.cpp.
///
/// The paper's first-layer 16-bit accumulator (each centered product
/// rounding-right-shifted by 4, VRSHR, then saturating-added, VQADD) is
/// not a runtime path: its arithmetic lives on as the scalar oracle
/// gemm_lowp_i32_shift4 / acc16_step that the accumulator ablation runs.
///
/// Telemetry: gemm.pack_ms (LHS packing).

#include <cstdint>
#include <vector>

#include "gemm/kernels.hpp"

namespace tincy::gemm {

/// Micro-kernel tile: kMr packed LHS rows × kNr RHS columns per call.
/// kNr = 16 keeps a full u32 accumulator tile in 16 NEON q-registers
/// while amortizing each packed LHS byte over 16 columns.
inline constexpr int64_t kMr = 4;
inline constexpr int64_t kNr = 16;

/// LHS packed into ceil(rows/kMr) panels of kMr interleaved rows
/// (data[panel][k*kMr + r]), padded rows filled with the zero-point, plus
/// the per-row code sums the zero-point decomposition needs. Cached on
/// ConvLayer/ConnectedLayer next to lowp_codes_.
struct PackedLhs {
  std::vector<uint8_t> data;
  std::vector<int32_t> row_sums;
  int64_t rows = 0;
  int64_t depth = 0;
  int32_t zero_point = 0;
};

/// Bytes of packed panel data for an M×K LHS (ceil(M/kMr)·kMr·K).
int64_t packed_lhs_bytes(int64_t rows, int64_t depth);

/// Packs row-major A (rows×depth) into panels and per-row sums; records
/// the cost into gemm.pack_ms.
PackedLhs pack_lhs(const uint8_t* A, int64_t rows, int64_t depth,
                   int32_t zero_point);

/// One step of the paper's §III-D first-layer 16-bit accumulator (NEON
/// VRSHR #4 then VQADD): rounding right shift of the 16-bit product by 4,
/// then saturating add into the running int16 accumulator.
int16_t acc16_step(int16_t acc, int16_t product);

/// Scalar oracle of the 16-bit accumulator: per product, rounding right
/// shift by 4 then saturating add into an int16 accumulator; the int32
/// output is the accumulator rescaled by 16. Tests and the accumulator
/// ablation only; no runtime path accumulates this way.
void gemm_lowp_i32_shift4(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                          int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                          int32_t* C);

/// Runs rows [row_begin, row_end) of `lhs` (row_begin a multiple of kMr)
/// against one packed K×kNr RHS panel (row stride kNr, per-column code
/// sums as im2col_panel_u8 writes them) and writes their exact int32
/// accumulators to C[i·kNr + j], i in [row_begin, row_end), padding lanes
/// included; the rest of the M×kNr block is not touched. `kernel` picks
/// the micro-kernel variant (kAuto: the TINCY_GEMM_KERNEL override, else
/// the widest supported).
void gemm_lowp_packed_panel(const PackedLhs& lhs, int64_t row_begin,
                            int64_t row_end, const uint8_t* panel,
                            const int32_t* col_sums, int32_t rhs_zero,
                            int32_t* C, Kernel kernel = Kernel::kAuto);

}  // namespace tincy::gemm
