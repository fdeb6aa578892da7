#include "gemm/gemm_packed.hpp"

#include <algorithm>

#include "core/errors.hpp"
#include "core/fixed_point.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::gemm {

// The micro-kernel variants live in gemm/kernels.cpp (scalar baseline,
// portable lane model) and gemm/kernels_avx2.cpp, behind lowp_kernel().

void gemm_lowp_packed_panel(const PackedLhs& lhs, int64_t row_begin,
                            int64_t row_end, const uint8_t* panel,
                            const int32_t* col_sums, int32_t rhs_zero,
                            int32_t* C, Kernel kernel) {
  TINCY_CHECK(row_begin % kMr == 0 && 0 <= row_begin &&
              row_begin <= row_end && row_end <= lhs.rows);
  const LowpTileFn tile_fn = lowp_kernel(resolve_kernel(kernel));
  const uint8_t* const data = lhs.data.data();
  const int32_t* const row_sums = lhs.row_sums.data();
  const int64_t K = lhs.depth;
  const int64_t kzz = K * static_cast<int64_t>(lhs.zero_point) * rhs_zero;
  uint32_t tile[kMr * kNr];
  // The int32 result is the zero-point decomposition modulo 2^32, so its
  // terms may wrap in uint32 arithmetic, which vectorises.
  uint32_t col_term[kNr];
  for (int64_t j = 0; j < kNr; ++j)
    col_term[j] = static_cast<uint32_t>(lhs.zero_point) *
                  static_cast<uint32_t>(col_sums[j]);
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kMr) {
    tile_fn(data + (i0 / kMr) * K * kMr, panel, K, tile);
    const int64_t rows = std::min<int64_t>(kMr, row_end - i0);
    for (int64_t r = 0; r < rows; ++r) {
      const uint32_t row_term =
          static_cast<uint32_t>(kzz) -
          static_cast<uint32_t>(rhs_zero) *
              static_cast<uint32_t>(row_sums[i0 + r]);
      const uint32_t* __restrict raw = tile + r * kNr;  // exact u32 dots
      int32_t* __restrict c = C + (i0 + r) * kNr;
      for (int64_t j = 0; j < kNr; ++j)
        c[j] = static_cast<int32_t>(raw[j] - col_term[j] + row_term);
    }
  }
}

int64_t packed_lhs_bytes(int64_t rows, int64_t depth) {
  return (rows + kMr - 1) / kMr * kMr * depth;
}

PackedLhs pack_lhs(const uint8_t* A, int64_t rows, int64_t depth,
                   int32_t zero_point) {
  static telemetry::Histogram& pack_hist =
      telemetry::MetricsRegistry::global().histogram("gemm.pack_ms");
  PackedLhs packed;
  packed.rows = rows;
  packed.depth = depth;
  packed.zero_point = zero_point;
  packed.data.resize(static_cast<size_t>(packed_lhs_bytes(rows, depth)));
  packed.row_sums.resize(static_cast<size_t>(rows));
  telemetry::ScopedTimer span(pack_hist);
  telemetry::TraceSpan trace(&telemetry::TraceCollector::global(),
                             "gemm.pack", telemetry::current_trace_context());
  const auto pad = static_cast<uint8_t>(zero_point);
  for (int64_t i0 = 0; i0 < rows; i0 += kMr) {
    uint8_t* p = packed.data.data() + (i0 / kMr) * depth * kMr;
    for (int64_t k = 0; k < depth; ++k)
      for (int64_t r = 0; r < kMr; ++r)
        p[k * kMr + r] = (i0 + r < rows) ? A[(i0 + r) * depth + k] : pad;
  }
  for (int64_t i = 0; i < rows; ++i) {
    int32_t s = 0;
    for (int64_t k = 0; k < depth; ++k) s += A[i * depth + k];
    packed.row_sums[static_cast<size_t>(i)] = s;
  }
  return packed;
}

int16_t acc16_step(int16_t acc, int16_t product) {
  return saturating_add<int16_t>(acc, rounding_right_shift(product, 4));
}

void gemm_lowp_i32_shift4(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                          int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                          int32_t* C) {
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      int16_t acc = 0;
      for (int64_t k = 0; k < K; ++k) {
        const int32_t p =
            (static_cast<int32_t>(A[i * K + k]) - lhs_zero) *
            (static_cast<int32_t>(B[k * N + j]) - rhs_zero);
        acc = acc16_step(acc, static_cast<int16_t>(p));
      }
      C[i * N + j] = static_cast<int32_t>(acc) * 16;
    }
  }
}

}  // namespace tincy::gemm
