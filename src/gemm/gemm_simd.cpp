#include "gemm/gemm_simd.hpp"

#include <vector>

#include "gemm/gemm_ref.hpp"
#include "simd/vec.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::gemm {

using simd::F32x4;

namespace {

/// Fills one lane-wide strip of the column matrix: for output positions
/// [col0, col0+width) produces `patch_size` rows of `width` values.
void im2col_strip_f32(const float* image, const ConvGeometry& g, int64_t col0,
                      int64_t width, float* strip) {
  const int64_t out_w = g.out_width();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        float* out_row = strip + row * width;
        for (int64_t j = 0; j < width; ++j) {
          const int64_t patch = col0 + j;
          const int64_t oh = patch / out_w, ow = patch % out_w;
          const int64_t ih = oh * g.stride - g.pad + kh;
          const int64_t iw = ow * g.stride - g.pad + kw;
          out_row[j] = (ih < 0 || ih >= g.in_height || iw < 0 ||
                        iw >= g.in_width)
                           ? 0.0f
                           : plane[ih * g.in_width + iw];
        }
      }
    }
  }
}

}  // namespace

// Starts on a cache line: the inner loop is a short latency chain, and
// with the function at other offsets in the binary (code added elsewhere
// in the library moves it) the float frame measured 10–20 % slower.
[[gnu::aligned(64)]] void fused_conv_f32(const float* image,
                                         const ConvGeometry& g,
                                         const float* weights,
                                         int64_t out_channels,
                                         const float* bias, float* out) {
  // The fused path has no separable im2col stage; one span covers it.
  static telemetry::Histogram& fused_hist =
      telemetry::MetricsRegistry::global().histogram("gemm.fused_ms");
  telemetry::ScopedTimer timer(fused_hist);

  constexpr int64_t kLanes = F32x4::kLanes;
  const int64_t patch = g.patch_size();
  const int64_t n = g.num_patches();
  std::vector<float> strip(static_cast<size_t>(patch * kLanes));

  for (int64_t col0 = 0; col0 < n; col0 += kLanes) {
    const int64_t width = std::min<int64_t>(kLanes, n - col0);
    im2col_strip_f32(image, g, col0, width, strip.data());
    for (int64_t m = 0; m < out_channels; ++m) {
      const float* w_row = weights + m * patch;
      if (width == kLanes) {
        F32x4 acc = F32x4::splat(bias ? bias[m] : 0.0f);
        for (int64_t k = 0; k < patch; ++k)
          acc = simd::mla(acc, F32x4::splat(w_row[k]),
                          F32x4::load(strip.data() + k * kLanes));
        acc.store(out + m * n + col0);
      } else {
        for (int64_t j = 0; j < width; ++j) {
          float acc = bias ? bias[m] : 0.0f;
          for (int64_t k = 0; k < patch; ++k)
            acc += w_row[k] * strip[static_cast<size_t>(k * width + j)];
          out[m * n + col0 + j] = acc;
        }
      }
    }
  }
}

void conv_via_im2col_f32(const float* image, const ConvGeometry& g,
                         const float* weights, int64_t out_channels,
                         const float* bias, float* out) {
  // Attribute the im2col materialization separately from the GEMM — the
  // two stages Table III distinguishes for the generic CPU path.
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& im2col_hist =
      registry.histogram("gemm.im2col_ms");
  static telemetry::Histogram& gemm_hist = registry.histogram("gemm.gemm_ms");

  const int64_t patch = g.patch_size(), n = g.num_patches();
  std::vector<float> columns(static_cast<size_t>(patch * n));
  {
    telemetry::ScopedTimer span(im2col_hist);
    im2col(image, g, columns.data(), 0.0f);
  }
  telemetry::ScopedTimer span(gemm_hist);
  gemm_ref(out_channels, n, patch, weights, columns.data(), out, 0.0f);
  if (bias) {
    for (int64_t m = 0; m < out_channels; ++m)
      for (int64_t j = 0; j < n; ++j) out[m * n + j] += bias[m];
  }
}

}  // namespace tincy::gemm
