#include "gemm/gemm_lowp.hpp"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/thread_pool.hpp"
#include "gemm/layout.hpp"
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

namespace {

/// One panel row's taps read straight from one image row: lane j is
/// src[j·stride]. Full stride-1 and stride-2 panels are one vector move;
/// the caller guarantees src[0, width·stride) is readable.
void copy_taps(const uint8_t* __restrict src, int64_t stride, int64_t width,
               uint8_t* __restrict out_row) {
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
}

}  // namespace

void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums) {
  const int64_t out_w = g.out_width();
  const int64_t oh0 = col0 / out_w, ow0 = col0 % out_w;
  const int64_t plane_size = g.in_height * g.in_width;
  // A 1×1, stride-1, unpadded conv reads pixel col of each plane for
  // column col: every panel row is one contiguous run of its plane, however
  // many output rows the panel crosses.
  const bool pointwise = g.kernel == 1 && g.stride == 1 && g.pad == 0;
  // The panel's columns share one output row, so each panel row reads one
  // image row at iw0, iw0 + stride, ..., within [iw0, iw0 + span].
  const bool one_row = ow0 + width <= out_w;
  const int64_t span = width * g.stride - 1;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * plane_size;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = panel + row * kNr;
        int64_t ow = ow0;
        int64_t ih = oh0 * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        if (pointwise) {
          copy_taps(plane + col0, 1, width, out_row);
        } else if (one_row && (ih < 0 || ih >= g.in_height)) {
          // A padding row of the image: every lane is the pad value.
          std::memset(out_row, pad_value, static_cast<size_t>(width));
        } else if (one_row && iw >= 0 && iw + span < g.in_width) {
          copy_taps(plane + ih * g.in_width + iw, g.stride, width, out_row);
        } else if (one_row && span < 2 * kNr) {
          // Taps past a side of the image (or a vector read that would
          // run off it): stage the row's in-bounds pixels among pad
          // values, then take the same strided copy from the stage.
          uint8_t stage[2 * kNr];
          std::memset(stage, pad_value, sizeof(stage));
          const int64_t lo = std::max<int64_t>(iw, 0);
          const int64_t hi = std::min<int64_t>(iw + span + 1, g.in_width);
          if (lo < hi)
            std::memcpy(stage + (lo - iw), plane + ih * g.in_width + lo,
                        static_cast<size_t>(hi - lo));
          copy_taps(stage, g.stride, width, out_row);
        } else {
          for (int64_t j = 0; j < width; ++j) {
            out_row[j] = (ih < 0 || ih >= g.in_height || iw < 0 ||
                          iw >= g.in_width)
                             ? pad_value
                             : plane[ih * g.in_width + iw];
            iw += g.stride;
            if (++ow == out_w) {
              ow = 0;
              iw = kw - g.pad;
              ih += g.stride;
            }
          }
        }
        if (width < kNr)
          std::memset(out_row + width, pad_value,
                      static_cast<size_t>(kNr - width));
      }
    }
  }
  // Column sums over the whole panel, pad lanes included, in one
  // fixed-width pass the compiler vectorises.
  int32_t sums[kNr] = {};
  for (int64_t r = 0; r < row; ++r)
    for (int64_t j = 0; j < kNr; ++j) sums[j] += panel[r * kNr + j];
  std::memcpy(col_sums, sums, sizeof(sums));
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

/// Smallest and largest of n > 0 codes.
std::pair<uint8_t, uint8_t> code_range(const uint8_t* codes, int64_t n) {
  uint8_t lo = codes[0], hi = codes[0];
  int64_t i = 0;
#if defined(__SSE2__)
  if (n >= 16) {
    __m128i vlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes));
    __m128i vhi = vlo;
    for (i = 16; i + 16 <= n; i += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
      vlo = _mm_min_epu8(vlo, x);
      vhi = _mm_max_epu8(vhi, x);
    }
    alignas(16) uint8_t l[16], h[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(l), vlo);
    _mm_store_si128(reinterpret_cast<__m128i*>(h), vhi);
    for (int k = 0; k < 16; ++k) {
      lo = std::min(lo, l[k]);
      hi = std::max(hi, h[k]);
    }
  }
#endif
  for (; i < n; ++i) {
    lo = std::min(lo, codes[i]);
    hi = std::max(hi, codes[i]);
  }
  return {lo, hi};
}

}  // namespace

quant::AffineParams quantize_code_frame(const quant::CodeGrid& g,
                                        const uint8_t* codes,
                                        int64_t channels, int64_t pixels,
                                        uint8_t* frame) {
  TINCY_CHECK_MSG(g.exact(), "codes on an inexact grid");
  TINCY_CHECK(channels > 0 && pixels > 0);
  const auto [lo, hi] = code_range(codes, channels * pixels);
  const quant::AffineParams params =
      quant::choose_affine_params(g.dequantize(lo), g.dequantize(hi));
  uint8_t table[256];
  for (int c = 0; c <= hi; ++c)
    table[c] = params.quantize(g.dequantize(static_cast<uint8_t>(c)));
  hwc_to_chw(codes, channels, pixels, frame,
             [&table](uint8_t c) { return table[c]; });
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
/// CodeGrid::quantize does, and stored pixel-major (HWC, the layout of
/// every code map; gemm/layout.hpp): channel m of column j goes to
/// out[j·channels + m].
struct CodeSink {
  uint8_t* out;
  int64_t channels;
  quant::UniformActQuant q;
  void operator()(int64_t m, int64_t col0, int64_t width,
                  const float* y) const {
    uint8_t codes[kNr];
    for (int64_t j = 0; j < kNr; ++j) codes[j] = q.quantize(y[j]);
    uint8_t* dst = out + col0 * channels + m;
    for (int64_t j = 0; j < width; ++j) dst[j * channels] = codes[j];
  }
};

/// parallel_for context of the driver. A work item is one row group of
/// one column panel: the panel im2col'd (once per run of items on the
/// same panel), the group's rows multiplied and run through the epilogue
/// in the worker's own arena.
template <typename Sink>
struct LowpShardCtx {
  const uint8_t* qimage;
  const ConvGeometry* g;
  const PackedLhs* weights;
  int32_t input_zero;
  float real_scale;
  const LowpEpilogue* epilogue;
  Sink sink;
  int64_t n;
  int64_t row_groups;
  Kernel kernel;
};

template <typename Sink>
void run_lowp_shard(int64_t lo, int64_t hi, void* p) {
  const auto& ctx = *static_cast<const LowpShardCtx<Sink>*>(p);
  const LowpEpilogue& epi = *ctx.epilogue;
  const int64_t patch = ctx.weights->depth;
  const int64_t out_channels = ctx.weights->rows;
  const int64_t row_blocks = (out_channels + kMr - 1) / kMr;
  const auto pad = static_cast<uint8_t>(ctx.input_zero);
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panel = arena.alloc<uint8_t>(patch * kNr);
  int32_t* acc = arena.alloc<int32_t>(out_channels * kNr);
  int32_t col_sums[kNr];
  for (int64_t item = lo, loaded = -1; item < hi; ++item) {
    const int64_t pi = item / ctx.row_groups, rg = item % ctx.row_groups;
    const int64_t col0 = pi * kNr;
    const int64_t width = std::min<int64_t>(kNr, ctx.n - col0);
    if (pi != loaded) {
      im2col_panel_u8(ctx.qimage, *ctx.g, col0, width, pad, panel, col_sums);
      loaded = pi;
    }
    const int64_t m0 = rg * row_blocks / ctx.row_groups * kMr;
    const int64_t m1 = std::min<int64_t>(
        out_channels, (rg + 1) * row_blocks / ctx.row_groups * kMr);
    // All kNr lanes (padding lanes too), so the chain runs full width.
    gemm_lowp_packed_panel(*ctx.weights, m0, m1, panel, col_sums,
                           ctx.input_zero, acc, ctx.kernel);
    for (int64_t m = m0; m < m1; ++m) {
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
              const PackedLhs& weights,
              const quant::AffineParams& weight_params,
              const LowpEpilogue& epilogue, Sink sink) {
  // im2col straight into the RHS panels, the micro-kernel and the
  // epilogue are one span.
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
  core::ThreadPool& pool = core::ThreadPool::shared();
  const int64_t num_panels = (n + kNr - 1) / kNr;
  const int64_t total_ops = 2 * out_channels * n * patch;
  int64_t shards = 1;
  constexpr int64_t kMinOpsPerShard = int64_t{1} << 18;
  if (pool.threads() > 1 && total_ops >= 2 * kMinOpsPerShard)
    shards = std::min<int64_t>(pool.threads(), total_ops / kMinOpsPerShard);
  // Fewer panels than shards (a connected layer's one column, a tiny
  // map): each panel's row blocks are split into groups as well.
  const int64_t row_groups =
      num_panels >= shards
          ? 1
          : std::min((out_channels + kMr - 1) / kMr,
                     (shards + num_panels - 1) / num_panels);
  const int64_t items = num_panels * row_groups;
  shards = std::min(shards, items);
  threads_gauge.set(static_cast<double>(shards));
  // The micro-kernel is resolved once per call, not per panel: resolving
  // scans the environment for TINCY_GEMM_KERNEL, which costs a sixth of
  // a skinny panel's tiles (L0's K = 27).
  LowpShardCtx<Sink> ctx{qimage,
                         &g,
                         &weights,
                         input_params.zero_point,
                         input_params.scale * weight_params.scale,
                         &epilogue,
                         sink,
                         n,
                         row_groups,
                         resolve_kernel(Kernel::kAuto)};
  const int64_t chunks = shards == 1 ? 1 : std::min(items, shards * 4);
  pool.parallel_for(0, items, chunks, run_lowp_shard<Sink>, &ctx);
}

}  // namespace

void fused_conv_lowp_f32out(const uint8_t* qimage, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhs& weights,
                            const quant::AffineParams& weight_params,
                            const LowpEpilogue& epilogue, float* out) {
  run_lowp(qimage, g, input_params, weights, weight_params, epilogue,
           FloatSink{out, g.num_patches()});
}

void fused_conv_lowp_codes(const uint8_t* qimage, const ConvGeometry& g,
                           const quant::AffineParams& input_params,
                           const PackedLhs& weights,
                           const quant::AffineParams& weight_params,
                           const LowpEpilogue& epilogue,
                           const quant::CodeGrid& grid, uint8_t* out) {
  TINCY_CHECK_MSG(!grid.bipolar, "the code sink writes unsigned grids only");
  run_lowp(qimage, g, input_params, weights, weight_params, epilogue,
           CodeSink{out, weights.rows, {grid.bits, grid.scale}});
}

}  // namespace tincy::gemm
