#pragma once

// The 8-bit conv driver (gemm/gemm_lowp.hpp) taken apart, for tests and
// benches. lowp_panel_loop runs its pieces on the calling thread: kNr
// columns at a time, im2col_panel_u8 into one K × kNr panel and the
// exact-i32 tile of gemm_lowp_packed_panel with a chosen micro-kernel
// variant. On the pointwise geometry {K, 1, N, 1, 1, 0} a row-major K × N
// matrix is its own im2col, so the loop is a plain GEMM. lowp_conv_naive
// is the scalar reference the loop and the threaded driver are checked
// against: dense im2col and gemm_lowp_i32. Nothing outside tests/ and
// bench/ includes this.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/errors.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::oracle {

/// The geometry under which a row-major K × N matrix is its own im2col:
/// K channels of one 1 × N row, a 1 × 1 kernel, stride 1, no padding.
inline gemm::ConvGeometry pointwise(int64_t K, int64_t N) {
  return {K, 1, N, 1, 1, 0};
}

/// C (M × n row-major, n = g.num_patches()) = the int32 accumulators of
/// `lhs` against the im2col of `image` under `g`, with `rhs_zero` as the
/// image's zero point and padding, through `kernel`'s tile on this
/// thread. Each panel runs as two calls, the row blocks split in half as
/// the driver splits them across shards: each call must write its rows'
/// block and nothing past it, and the padding lanes (all `rhs_zero`)
/// must accumulate to 0.
inline void lowp_panel_loop(const uint8_t* image, const gemm::ConvGeometry& g,
                            const gemm::PackedLhs& lhs, int32_t rhs_zero,
                            gemm::Kernel kernel, int32_t* C) {
  using gemm::kMr;
  using gemm::kNr;
  constexpr int32_t kGuard = 0x5A5A5A5A;
  const int64_t n = g.num_patches(), M = lhs.rows;
  const int64_t split = (M + kMr - 1) / kMr / 2 * kMr;  // a block boundary
  std::vector<uint8_t> panel(static_cast<size_t>(g.patch_size() * kNr));
  std::vector<int32_t> block(static_cast<size_t>((M + 1) * kNr));
  int32_t col_sums[kNr];
  for (int64_t col0 = 0; col0 < n; col0 += kNr) {
    const int64_t width = std::min(kNr, n - col0);
    gemm::im2col_panel_u8(image, g, col0, width,
                          static_cast<uint8_t>(rhs_zero), panel.data(),
                          col_sums);
    std::fill(block.begin(), block.end(), kGuard);
    gemm::gemm_lowp_packed_panel(lhs, 0, split, panel.data(), col_sums,
                                 rhs_zero, block.data(), kernel);
    TINCY_CHECK_MSG(std::all_of(block.begin() + split * kNr, block.end(),
                                [](int32_t v) { return v == kGuard; }),
                    "the tile wrote past row " << split);
    gemm::gemm_lowp_packed_panel(lhs, split, M, panel.data(), col_sums,
                                 rhs_zero, block.data(), kernel);
    for (int64_t i = 0; i < M; ++i) {
      const int32_t* row = block.data() + i * kNr;
      std::copy_n(row, width, C + i * n + col0);
      for (int64_t j = width; j < kNr; ++j)
        TINCY_CHECK_MSG(row[j] == 0, "padding lane " << j << " of row " << i
                                                     << " holds " << row[j]);
    }
    for (int64_t j = 0; j < kNr; ++j)
      TINCY_CHECK_MSG(block[static_cast<size_t>(M * kNr + j)] == kGuard,
                      "the tile wrote past its M x kNr block");
  }
}

/// Shards the latest 8-bit driver call ran on (the gemm.threads gauge).
inline double last_driver_shards() {
  return telemetry::MetricsRegistry::global().snapshot().gauge_value(
      "gemm.threads");
}

/// The scalar reference of the loop above on the raw (unpacked) weight
/// codes A (M × g.patch_size(), row-major): dense im2col with `rhs_zero`
/// padding, then gemm_lowp_i32.
inline void lowp_conv_naive(const uint8_t* image, const gemm::ConvGeometry& g,
                            const uint8_t* A, int64_t M, int32_t lhs_zero,
                            int32_t rhs_zero, int32_t* C) {
  const int64_t K = g.patch_size(), n = g.num_patches();
  std::vector<uint8_t> columns(static_cast<size_t>(K * n));
  gemm::im2col<uint8_t>(image, g, columns.data(),
                        static_cast<uint8_t>(rhs_zero));
  gemm::gemm_lowp_i32(M, n, K, A, lhs_zero, columns.data(), rhs_zero, C);
}

/// One output of fused_conv_lowp_f32out under an epilogue with only a
/// bias and a linear activation, in the driver's order of operations:
/// (real_scale · acc + 0) · 1 + 0 + bias, where the · 1 and the second
/// + 0 change no bits.
inline float lowp_bias_epilogue(float real_scale, int32_t acc, float bias) {
  return real_scale * static_cast<float>(acc) + 0.0f + bias;
}

}  // namespace tincy::oracle
