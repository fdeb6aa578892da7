#include "gemm/gemm_lowp.hpp"

#include <algorithm>

#include "gemm/scratch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::gemm {

void gemm_lowp_i32(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                   int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                   int32_t* C) {
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      int32_t acc = 0;
      for (int64_t k = 0; k < K; ++k) {
        const int32_t a = static_cast<int32_t>(A[i * K + k]) - lhs_zero;
        const int32_t b = static_cast<int32_t>(B[k * N + j]) - rhs_zero;
        acc += a * b;
      }
      C[i * N + j] = acc;
    }
  }
}

void gemm_lowp_u8(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                  int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                  const quant::Requantizer& requant, uint8_t* C) {
  // Accumulate through the packed engine (bit-identical to gemm_lowp_i32)
  // into arena scratch: no heap allocation in steady state.
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  int32_t* acc = arena.alloc<int32_t>(M * N);
  gemm_lowp_packed(M, N, K, A, lhs_zero, B, rhs_zero, acc);
  for (int64_t i = 0; i < M * N; ++i) C[i] = requant.apply(acc[i]);
}

void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums) {
  const int64_t out_w = g.out_width();
  for (int64_t j = 0; j < kNr; ++j) col_sums[j] = 0;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = panel + row * kNr;
        int64_t ow = col0 % out_w;
        int64_t ih = (col0 / out_w) * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        for (int64_t j = 0; j < width; ++j) {
          const uint8_t v = (ih < 0 || ih >= g.in_height || iw < 0 ||
                             iw >= g.in_width)
                                ? pad_value
                                : plane[ih * g.in_width + iw];
          out_row[j] = v;
          col_sums[j] += v;
          iw += g.stride;
          if (++ow == out_w) {
            ow = 0;
            iw = kw - g.pad;
            ih += g.stride;
          }
        }
        for (int64_t j = width; j < kNr; ++j) {
          out_row[j] = pad_value;
          col_sums[j] += pad_value;
        }
      }
    }
  }
}

namespace {

/// parallel_for context of the fused conv path: shards of column panels,
/// each im2col'd and multiplied in the worker's own arena.
struct FusedShardCtx {
  const uint8_t* qimage;
  const ConvGeometry* g;
  PackedLhsView weights;
  int32_t input_zero;
  uint8_t pad;
  float real_scale;
  const float* bias;
  float* out;
  int64_t n;
};

void run_fused_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<FusedShardCtx*>(p);
  const int64_t patch = ctx.weights.depth;
  const int64_t out_channels = ctx.weights.rows;
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panel = arena.alloc<uint8_t>(patch * kNr);
  int32_t* acc = arena.alloc<int32_t>(out_channels * kNr);
  for (int64_t pi = lo; pi < hi; ++pi) {
    const int64_t col0 = pi * kNr;
    const int64_t width = std::min<int64_t>(kNr, ctx.n - col0);
    int32_t col_sums[kNr];
    im2col_panel_u8(ctx.qimage, *ctx.g, col0, width, ctx.pad, panel, col_sums);
    gemm_lowp_packed_panel(ctx.weights, panel, col_sums, 0, width, width,
                           ctx.input_zero, Accumulator::kI32, acc);
    for (int64_t m = 0; m < out_channels; ++m) {
      const float b = ctx.bias ? ctx.bias[m] : 0.0f;
      for (int64_t j = 0; j < width; ++j)
        ctx.out[m * ctx.n + col0 + j] =
            ctx.real_scale * static_cast<float>(acc[m * width + j]) + b;
    }
  }
}

}  // namespace

void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhsView& weights,
                            const quant::AffineParams& weight_params,
                            const float* bias, float* out) {
  // A packed-engine driver: im2col, RHS packing and the micro-kernel are
  // one span, attributed like gemm_lowp_packed's compute half.
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& packed_hist =
      registry.histogram("gemm.packed_ms");
  static telemetry::Gauge& threads_gauge = registry.gauge("gemm.threads");
  telemetry::ScopedTimer timer(packed_hist);
  telemetry::TraceSpan trace(&telemetry::TraceCollector::global(),
                             "gemm.compute",
                             telemetry::current_trace_context());

  const int64_t patch = g.patch_size(), n = g.num_patches();
  const int64_t out_channels = weights.rows;
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  const int64_t pixels = g.in_channels * g.in_height * g.in_width;
  uint8_t* qimage = arena.alloc<uint8_t>(pixels);
  quant::quantize(image, pixels, input_params, qimage);

  FusedShardCtx ctx{qimage,
                    &g,
                    weights,
                    input_params.zero_point,
                    static_cast<uint8_t>(input_params.zero_point),
                    input_params.scale * weight_params.scale,
                    bias,
                    out,
                    n};
  core::ThreadPool& pool = core::ThreadPool::shared();
  const int64_t num_panels = (n + kNr - 1) / kNr;
  const int64_t total_ops = 2 * out_channels * n * patch;
  int64_t shards = 1;
  constexpr int64_t kMinOpsPerShard = int64_t{1} << 18;
  if (pool.threads() > 1 && total_ops >= 2 * kMinOpsPerShard)
    shards = std::min<int64_t>(pool.threads(), total_ops / kMinOpsPerShard);
  threads_gauge.set(static_cast<double>(shards));
  const int64_t chunks =
      shards == 1 ? 1 : std::min<int64_t>(num_panels, shards * 4);
  pool.parallel_for(0, num_panels, chunks, run_fused_shard, &ctx);
}

}  // namespace tincy::gemm
