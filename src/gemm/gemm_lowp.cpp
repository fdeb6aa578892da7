#include "gemm/gemm_lowp.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

namespace {

/// One panel row's taps read straight from one image row: lane j is
/// src[j·stride]. Full stride-1 and stride-2 panels are one vector move;
/// the caller guarantees src[0, width·stride) is readable.
void copy_taps(const uint8_t* __restrict src, int64_t stride, int64_t width,
               uint8_t* __restrict out_row, int32_t* __restrict col_sums) {
  if (width == kNr && stride == 1) {
    for (int64_t j = 0; j < kNr; ++j) out_row[j] = src[j];
#if defined(__SSE2__)
  } else if (width == kNr && stride == 2) {
    // The even bytes of src[0, 32): mask each 16-bit pair, pack to bytes.
    const __m128i even = _mm_set1_epi16(0x00FF);
    const __m128i lo = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)), even);
    const __m128i hi = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + kNr)), even);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_row),
                     _mm_packus_epi16(lo, hi));
#endif
  } else {
    for (int64_t j = 0; j < width; ++j) out_row[j] = src[j * stride];
  }
  for (int64_t j = 0; j < width; ++j) col_sums[j] += out_row[j];
}

}  // namespace

void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums) {
  const int64_t out_w = g.out_width();
  const int64_t oh0 = col0 / out_w, ow0 = col0 % out_w;
  // The panel's columns share one output row, so each panel row reads one
  // image row at iw0, iw0 + stride, ..., within [iw0, iw0 + span].
  const bool one_row = ow0 + width <= out_w;
  const int64_t span = width * g.stride - 1;
  for (int64_t j = 0; j < kNr; ++j) col_sums[j] = 0;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = panel + row * kNr;
        int64_t ow = ow0;
        int64_t ih = oh0 * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        if (one_row && ih >= 0 && ih < g.in_height && iw >= 0 &&
            iw + span < g.in_width) {
          copy_taps(plane + ih * g.in_width + iw, g.stride, width, out_row,
                    col_sums);
        } else {
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
        }
        for (int64_t j = width; j < kNr; ++j) {
          out_row[j] = pad_value;
          col_sums[j] += pad_value;
        }
      }
    }
  }
}

quant::AffineParams quantize_frame(const float* image, int64_t n,
                                   uint8_t* codes) {
  core::ThreadPool& pool = core::ThreadPool::shared();
  const auto [lo, hi] = quant::min_max(image, n, pool);
  const quant::AffineParams params = quant::choose_affine_params(lo, hi);
  quant::quantize(image, n, params, codes, pool);
  return params;
}

namespace {

/// The float sink: channel m's lanes land in row m of the C' × n output.
struct FloatSink {
  float* out;
  int64_t n;
  void operator()(int64_t m, int64_t col0, int64_t width,
                  const float* y) const {
    float* dst = out + m * n + col0;
    if (width == kNr)
      for (int64_t j = 0; j < kNr; ++j) dst[j] = y[j];
    else
      for (int64_t j = 0; j < width; ++j) dst[j] = y[j];
  }
};

/// The code sink: y quantised onto the consumer's unsigned grid, as
/// CodeGrid::quantize does.
struct CodeSink {
  uint8_t* out;
  int64_t n;
  quant::UniformActQuant q;
  void operator()(int64_t m, int64_t col0, int64_t width,
                  const float* y) const {
    uint8_t codes[kNr];
    for (int64_t j = 0; j < kNr; ++j) codes[j] = q.quantize(y[j]);
    uint8_t* dst = out + m * n + col0;
    for (int64_t j = 0; j < width; ++j) dst[j] = codes[j];
  }
};

/// parallel_for context of the driver: shards of column panels, each
/// im2col'd, multiplied and run through the epilogue in the worker's own
/// arena.
template <typename Sink>
struct LowpShardCtx {
  const uint8_t* qimage;
  const ConvGeometry* g;
  PackedLhsView weights;
  int32_t input_zero;
  float real_scale;
  const LowpEpilogue* epilogue;
  Sink sink;
  int64_t n;
};

template <typename Sink>
void run_lowp_shard(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<const LowpShardCtx<Sink>*>(p);
  const LowpEpilogue& epi = *ctx.epilogue;
  const int64_t patch = ctx.weights.depth;
  const int64_t out_channels = ctx.weights.rows;
  const auto pad = static_cast<uint8_t>(ctx.input_zero);
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panel = arena.alloc<uint8_t>(patch * kNr);
  int32_t* acc = arena.alloc<int32_t>(out_channels * kNr);
  for (int64_t pi = lo; pi < hi; ++pi) {
    const int64_t col0 = pi * kNr;
    const int64_t width = std::min<int64_t>(kNr, ctx.n - col0);
    int32_t col_sums[kNr];
    im2col_panel_u8(ctx.qimage, *ctx.g, col0, width, pad, panel, col_sums);
    // All kNr lanes (padding lanes too), so the chain runs full width.
    gemm_lowp_packed_panel(ctx.weights, panel, col_sums, 0, kNr, kNr,
                           ctx.input_zero, Accumulator::kI32, acc);
    for (int64_t m = 0; m < out_channels; ++m) {
      const float mul = epi.mul ? epi.mul[m] : 1.0f;
      const float add = epi.add ? epi.add[m] : 0.0f;
      const float bias = epi.bias ? epi.bias[m] : 0.0f;
      const int32_t* a = acc + m * kNr;
      float y[kNr];
      for (int64_t j = 0; j < kNr; ++j) {
        // "+ 0" maps −0 to +0, as the float layers' separate post-pass
        // received it; kept so both forms agree bit for bit.
        const float v = ctx.real_scale * static_cast<float>(a[j]) + 0.0f;
        y[j] = v * mul + add + bias;
      }
      // One branch per channel row; each lane loop below vectorises.
      with_activation(epi.act, [&](auto act) {
        for (int64_t j = 0; j < kNr; ++j) y[j] = act(y[j]);
      });
      if (epi.snap)
        for (int64_t j = 0; j < kNr; ++j) y[j] = epi.snap->snap(y[j]);
      ctx.sink(m, col0, width, y);
    }
  }
}

template <typename Sink>
void run_lowp(const uint8_t* qimage, const ConvGeometry& g,
              const quant::AffineParams& input_params,
              const PackedLhsView& weights,
              const quant::AffineParams& weight_params,
              const LowpEpilogue& epilogue, Sink sink) {
  // A packed-engine driver: im2col, RHS packing, the micro-kernel and the
  // epilogue are one span, attributed like gemm_lowp_packed's compute
  // half.
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
  LowpShardCtx<Sink> ctx{qimage,
                         &g,
                         weights,
                         input_params.zero_point,
                         input_params.scale * weight_params.scale,
                         &epilogue,
                         sink,
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
  pool.parallel_for(0, num_panels, chunks, run_lowp_shard<Sink>, &ctx);
}

}  // namespace

void fused_conv_lowp_f32out(const uint8_t* qimage, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhsView& weights,
                            const quant::AffineParams& weight_params,
                            const LowpEpilogue& epilogue, float* out) {
  run_lowp(qimage, g, input_params, weights, weight_params, epilogue,
           FloatSink{out, g.num_patches()});
}

void fused_conv_lowp_codes(const uint8_t* qimage, const ConvGeometry& g,
                           const quant::AffineParams& input_params,
                           const PackedLhsView& weights,
                           const quant::AffineParams& weight_params,
                           const LowpEpilogue& epilogue,
                           const quant::CodeGrid& grid, uint8_t* out) {
  TINCY_CHECK_MSG(!grid.bipolar, "the code sink writes unsigned grids only");
  run_lowp(qimage, g, input_params, weights, weight_params, epilogue,
           CodeSink{out, g.num_patches(), {grid.bits, grid.scale}});
}

}  // namespace tincy::gemm
