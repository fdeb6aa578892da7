#include "gemm/gemm_packed.hpp"

#include <algorithm>

#include "core/fixed_point.hpp"
#include "gemm/kernels.hpp"
#include "gemm/scratch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::gemm {

namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

// The micro-kernels themselves live in gemm/kernels.cpp (scalar baseline,
// portable lane model) and gemm/kernels_avx2.cpp, behind the MicroKernels
// dispatch table; the drivers below resolve the variant once per call.

void gemm_lowp_packed_panel(const PackedLhsView& lhs, const uint8_t* panel,
                   const int32_t* col_sums, int64_t j0, int64_t width,
                   int64_t N, int32_t rhs_zero, Accumulator acc, int32_t* C,
                   Kernel kernel) {
  const MicroKernels& mk = micro_kernels(resolve_kernel(kernel));
  const int64_t M = lhs.rows, K = lhs.depth;
  const int64_t kzz = K * static_cast<int64_t>(lhs.zero_point) * rhs_zero;
  int32_t tile[kMr * kNr];
  // The int32 result is the zero-point decomposition modulo 2^32, so its
  // terms may wrap in uint32 arithmetic, which vectorises.
  uint32_t col_term[kNr];
  for (int64_t j = 0; j < kNr; ++j)
    col_term[j] = static_cast<uint32_t>(lhs.zero_point) *
                  static_cast<uint32_t>(col_sums[j]);
  for (int64_t i0 = 0; i0 < M; i0 += kMr) {
    const uint8_t* a = lhs.data + (i0 / kMr) * K * kMr;
    const int64_t rows = std::min<int64_t>(kMr, M - i0);
    if (acc == Accumulator::kI16Shift4) {
      mk.i16shift4(a, panel, K, lhs.zero_point, rhs_zero, tile);
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < width; ++j)
          C[(i0 + r) * N + j0 + j] = tile[r * kNr + j];
    } else {
      mk.i32(a, panel, K, reinterpret_cast<uint32_t*>(tile));
      for (int64_t r = 0; r < rows; ++r) {
        const uint32_t row_term =
            static_cast<uint32_t>(kzz) -
            static_cast<uint32_t>(rhs_zero) *
                static_cast<uint32_t>(lhs.row_sums[i0 + r]);
        const uint32_t* __restrict raw =  // exact u32 dots
            reinterpret_cast<const uint32_t*>(tile) + r * kNr;
        int32_t* __restrict c = C + (i0 + r) * N + j0;
        const auto put = [&](int64_t j) {
          c[j] = static_cast<int32_t>(raw[j] - col_term[j] + row_term);
        };
        if (width == kNr)
          for (int64_t j = 0; j < kNr; ++j) put(j);
        else
          for (int64_t j = 0; j < width; ++j) put(j);
      }
    }
  }
}

namespace {

/// parallel_for context sharding over RHS column panels (the common GEMM
/// shape): each shard packs its panels into its own thread arena.
struct PanelShardCtx {
  PackedLhsView lhs;
  const uint8_t* B;
  int32_t rhs_zero;
  int64_t N;
  int32_t* C;
  Accumulator acc;
  Kernel kernel;
};

void run_panel_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<PanelShardCtx*>(p);
  const int64_t K = ctx.lhs.depth;
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panel = arena.alloc<uint8_t>(K * kNr);
  for (int64_t pi = lo; pi < hi; ++pi) {
    const int64_t j0 = pi * kNr;
    const int64_t width = std::min<int64_t>(kNr, ctx.N - j0);
    int32_t col_sums[kNr];
    pack_rhs_panel(ctx.B, K, ctx.N, j0, width, ctx.rhs_zero, panel, col_sums);
    gemm_lowp_packed_panel(ctx.lhs, panel, col_sums, j0, width, ctx.N,
                           ctx.rhs_zero, ctx.acc, ctx.C, ctx.kernel);
  }
}

/// parallel_for context of the N == 1 fast path: row blocks over the
/// expanded RHS column.
struct GemvShardCtx {
  PackedLhsView lhs;
  const uint8_t* bexp;
  int32_t col_sum;
  int32_t rhs_zero;
  int32_t* C;
  const MicroKernels* mk;
};

void run_gemv_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<GemvShardCtx*>(p);
  const int64_t M = ctx.lhs.rows, K = ctx.lhs.depth;
  const int64_t kzz = K * static_cast<int64_t>(ctx.lhs.zero_point) *
                      ctx.rhs_zero;
  for (int64_t blk = lo; blk < hi; ++blk) {
    int64_t raw[kMr];
    ctx.mk->gemv(ctx.lhs.data + blk * K * kMr, ctx.bexp, K * kMr, raw);
    const int64_t rows = std::min<int64_t>(kMr, M - blk * kMr);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t i = blk * kMr + r;
      ctx.C[i] = static_cast<int32_t>(
          raw[r] - static_cast<int64_t>(ctx.lhs.zero_point) * ctx.col_sum -
          static_cast<int64_t>(ctx.rhs_zero) * ctx.lhs.row_sums[i] + kzz);
    }
  }
}

/// parallel_for context sharding over LHS row blocks (GEMV-shaped calls,
/// N ≤ kNr: one shared read-only RHS panel, many output rows).
struct RowShardCtx {
  PackedLhsView lhs;
  const uint8_t* panel;
  const int32_t* col_sums;
  int64_t width;
  int64_t N;
  int32_t rhs_zero;
  int32_t* C;
  Accumulator acc;
  Kernel kernel;
};

void run_row_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<RowShardCtx*>(p);
  // Clip the view to the row blocks [lo, hi) so compute_panel's loop over
  // "all" row blocks covers exactly this shard.
  PackedLhsView part = ctx.lhs;
  part.data += lo * kMr * ctx.lhs.depth;
  part.row_sums += lo * kMr;
  part.rows = std::min<int64_t>(ctx.lhs.rows, hi * kMr) - lo * kMr;
  gemm_lowp_packed_panel(part, ctx.panel, ctx.col_sums, 0, ctx.width, ctx.N,
                         ctx.rhs_zero, ctx.acc, ctx.C + lo * kMr * ctx.N,
                         ctx.kernel);
}

}  // namespace

int64_t packed_lhs_bytes(int64_t rows, int64_t depth) {
  return ceil_div(rows, kMr) * kMr * depth;
}

void pack_lhs_into(const uint8_t* A, int64_t rows, int64_t depth,
                   int32_t zero_point, uint8_t* panels, int32_t* row_sums) {
  const auto pad = static_cast<uint8_t>(zero_point);
  for (int64_t i0 = 0; i0 < rows; i0 += kMr) {
    uint8_t* p = panels + (i0 / kMr) * depth * kMr;
    for (int64_t k = 0; k < depth; ++k)
      for (int64_t r = 0; r < kMr; ++r)
        p[k * kMr + r] = (i0 + r < rows) ? A[(i0 + r) * depth + k] : pad;
  }
  for (int64_t i = 0; i < rows; ++i) {
    int32_t s = 0;
    for (int64_t k = 0; k < depth; ++k) s += A[i * depth + k];
    row_sums[i] = s;
  }
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
  pack_lhs_into(A, rows, depth, zero_point, packed.data.data(),
                packed.row_sums.data());
  return packed;
}

void pack_rhs_panel(const uint8_t* B, int64_t depth, int64_t cols,
                    int64_t col0, int64_t width, int32_t zero_point,
                    uint8_t* panel, int32_t* col_sums) {
  const auto pad = static_cast<uint8_t>(zero_point);
  for (int64_t j = 0; j < kNr; ++j) col_sums[j] = 0;
  for (int64_t k = 0; k < depth; ++k) {
    uint8_t* dst = panel + k * kNr;
    const uint8_t* src = B + k * cols + col0;
    for (int64_t j = 0; j < kNr; ++j) {
      const uint8_t v = j < width ? src[j] : pad;
      dst[j] = v;
      col_sums[j] += v;
    }
  }
}

bool acc16_safe(int64_t depth, int32_t lhs_zero, int32_t rhs_zero) {
  const int64_t amax = std::max<int64_t>(lhs_zero, 255 - lhs_zero);
  const int64_t bmax = std::max<int64_t>(rhs_zero, 255 - rhs_zero);
  const int64_t prod = amax * bmax;
  if (prod > 32767) return false;  // a centered product could wrap i16
  const int64_t shifted = (prod + 8) >> 4;  // worst rounded-shifted product
  return depth * shifted <= 32767;          // sum can never saturate
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

void gemm_lowp_packed(const PackedLhsView& lhs, const uint8_t* B,
                      int32_t rhs_zero, int64_t N, int32_t* C,
                      const GemmOptions& opts) {
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& packed_hist =
      registry.histogram("gemm.packed_ms");
  static telemetry::Gauge& threads_gauge = registry.gauge("gemm.threads");

  const int64_t M = lhs.rows, K = lhs.depth;
  if (M <= 0 || N <= 0) return;
  telemetry::ScopedTimer span(packed_hist);
  telemetry::TraceSpan trace(&telemetry::TraceCollector::global(),
                             "gemm.compute",
                             telemetry::current_trace_context());

  Accumulator acc = opts.acc;
  if (acc == Accumulator::kAuto)
    acc = acc16_safe(K, lhs.zero_point, rhs_zero) ? Accumulator::kI16Shift4
                                                  : Accumulator::kI32;
  // Resolve the micro-kernel variant once per call so every shard of this
  // call (and a mid-call TINCY_GEMM_KERNEL change) agrees on the kernel.
  const Kernel kernel = resolve_kernel(opts.kernel);

  core::ThreadPool& pool = opts.pool ? *opts.pool : core::ThreadPool::shared();
  const int64_t total_ops = 2 * M * N * K;
  int64_t shards = 1;
  if (opts.allow_threads && pool.threads() > 1 &&
      total_ops >= opts.min_ops_to_thread &&
      total_ops >= 2 * opts.min_ops_per_shard)
    shards = std::min<int64_t>(pool.threads(),
                               total_ops / opts.min_ops_per_shard);
  threads_gauge.set(static_cast<double>(shards));

  const int64_t num_panels = ceil_div(N, kNr);
  if (N == 1 && acc == Accumulator::kI32) {
    // GEMV fast path: replicate the column 4× so each packed row block is
    // one flat 16-lane dot product (a packed kNr-wide panel would waste
    // 15/16 of the multiplies on padding).
    auto& arena = thread_arena();
    ScratchScope scope(arena);
    uint8_t* bexp = arena.alloc<uint8_t>(K * kMr);
    int32_t col_sum = 0;
    for (int64_t k = 0; k < K; ++k) {
      const uint8_t v = B[k];
      col_sum += v;
      for (int64_t r = 0; r < kMr; ++r) bexp[k * kMr + r] = v;
    }
    GemvShardCtx ctx{lhs, bexp, col_sum, rhs_zero, C, &micro_kernels(kernel)};
    const int64_t blocks = ceil_div(M, kMr);
    const int64_t chunks =
        shards == 1 ? 1 : std::min<int64_t>(blocks, shards * 4);
    pool.parallel_for(0, blocks, chunks, run_gemv_shard, &ctx);
  } else if (num_panels > 1) {
    PanelShardCtx ctx{lhs, B, rhs_zero, N, C, acc, kernel};
    // Fine-grained column-panel sharding: 8 chunks per shard keeps the
    // tail balanced when panel costs vary (skinny-K panels are cheap, so
    // coarse chunks leave whole shards idle at the end).
    const int64_t chunks =
        shards == 1 ? 1 : std::min<int64_t>(num_panels, shards * 8);
    pool.parallel_for(0, num_panels, chunks, run_panel_shard, &ctx);
  } else {
    // GEMV shape: pack the single panel once, shard the row blocks.
    auto& arena = thread_arena();
    ScratchScope scope(arena);
    uint8_t* panel = arena.alloc<uint8_t>(K * kNr);
    int32_t col_sums[kNr];
    pack_rhs_panel(B, K, N, 0, N, rhs_zero, panel, col_sums);
    RowShardCtx ctx{lhs, panel, col_sums, N, N, rhs_zero, C, acc, kernel};
    const int64_t blocks = ceil_div(M, kMr);
    const int64_t chunks =
        shards == 1 ? 1 : std::min<int64_t>(blocks, shards * 4);
    pool.parallel_for(0, blocks, chunks, run_row_shard, &ctx);
  }
}

void gemm_lowp_packed(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                      int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                      int32_t* C, const GemmOptions& opts) {
  static telemetry::Histogram& pack_hist =
      telemetry::MetricsRegistry::global().histogram("gemm.pack_ms");
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panels = arena.alloc<uint8_t>(packed_lhs_bytes(M, K));
  int32_t* row_sums = arena.alloc<int32_t>(M);
  {
    telemetry::ScopedTimer span(pack_hist);
    pack_lhs_into(A, M, K, lhs_zero, panels, row_sums);
  }
  PackedLhsView view;
  view.data = panels;
  view.row_sums = row_sums;
  view.rows = M;
  view.depth = K;
  view.zero_point = lhs_zero;
  gemm_lowp_packed(view, B, rhs_zero, N, C, opts);
}

}  // namespace tincy::gemm
