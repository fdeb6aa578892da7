// Ablation: accumulator management in the paper's 16-bit first-layer
// kernel.
//
// The paper's fastest first-layer variant accumulates 16-bit products in
// 16-bit lanes, which "requires a careful management of the accumulator
// scale so as to avoid destructive numeric overflow in adding up the 27
// products. Therefore, a rounding right shift by 4 bit positions must be
// performed before accumulation. This, in fact, introduces some small loss
// of detection accuracy." This bench quantifies that trade-off: for each
// pre-accumulation shift amount, the numeric error against the float
// kernel and the rate of saturating (overflow-avoided) accumulations, on
// real SynthVOC image content. At shift 4 the instrumented model must
// equal the GEMM engine's kI16Shift4 oracle (gemm_lowp_i32_shift4)
// exactly; the program exits non-zero otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/rng.hpp"
#include "data/synthvoc.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/gemm_simd.hpp"
#include "gemm/im2col.hpp"
#include "quant/affine.hpp"

using namespace tincy;

namespace {

/// Symmetrically quantized int8 weights (zero point fixed at 0), as the
/// paper's 8-bit first-layer kernels use them.
struct SymmetricWeights {
  std::vector<int8_t> codes;  ///< out_channels × patch, row-major.
  float scale = 1.0f;         ///< real = scale * code.
};

/// Single symmetric scale: max |w| maps to ±127.
SymmetricWeights quantize_symmetric(const Tensor& weights) {
  SymmetricWeights sw;
  float max_abs = 0.0f;
  for (int64_t i = 0; i < weights.numel(); ++i)
    max_abs = std::max(max_abs, std::fabs(weights[i]));
  sw.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  sw.codes.resize(static_cast<size_t>(weights.numel()));
  for (int64_t i = 0; i < weights.numel(); ++i)
    sw.codes[static_cast<size_t>(i)] = saturate_cast<int8_t>(
        static_cast<int32_t>(std::lround(weights[i] / sw.scale)));
  return sw;
}

std::vector<uint8_t> quantize_image(const Tensor& image,
                                    const quant::AffineParams& ip) {
  std::vector<uint8_t> qimage(static_cast<size_t>(image.numel()));
  for (int64_t i = 0; i < image.numel(); ++i)
    qimage[static_cast<size_t>(i)] = ip.quantize(image[i]);
  return qimage;
}

/// acc16 kernel semantics with a configurable pre-accumulation shift,
/// instrumented to count saturation events. Returns the 16 × n int16
/// accumulators.
std::vector<int16_t> acc16_variable_shift(const Tensor& image,
                                          const gemm::ConvGeometry& g,
                                          const quant::AffineParams& ip,
                                          const SymmetricWeights& sw,
                                          int shift, int64_t& saturations) {
  const int64_t n = g.num_patches(), out_w = g.out_width();
  const std::vector<uint8_t> qimage = quantize_image(image, ip);
  std::vector<int16_t> accs(static_cast<size_t>(16 * n));

  for (int64_t j = 0; j < n; ++j) {
    const int64_t oh = j / out_w, ow = j % out_w;
    uint8_t taps[27];
    int64_t k = 0;
    for (int64_t c = 0; c < 3; ++c)
      for (int64_t kh = 0; kh < 3; ++kh)
        for (int64_t kw = 0; kw < 3; ++kw, ++k) {
          const int64_t ih = oh * g.stride - g.pad + kh;
          const int64_t iw = ow * g.stride - g.pad + kw;
          taps[k] = (ih < 0 || ih >= g.in_height || iw < 0 ||
                     iw >= g.in_width)
                        ? static_cast<uint8_t>(ip.zero_point)
                        : qimage[static_cast<size_t>(
                              (c * g.in_height + ih) * g.in_width + iw)];
        }
    for (int64_t m = 0; m < 16; ++m) {
      int16_t acc = 0;
      for (int64_t t = 0; t < 27; ++t) {
        const auto a = static_cast<int16_t>(
            static_cast<int32_t>(taps[t]) - ip.zero_point);
        const auto prod = static_cast<int16_t>(
            static_cast<int32_t>(a) *
            sw.codes[static_cast<size_t>(m * 27 + t)]);
        const int16_t shifted = rounding_right_shift(prod, shift);
        const int32_t wide = static_cast<int32_t>(acc) + shifted;
        const int16_t sat = saturate_cast<int16_t>(wide);
        if (sat != wide) ++saturations;
        acc = sat;
      }
      accs[static_cast<size_t>(m * n + j)] = acc;
    }
  }
  return accs;
}

}  // namespace

int main() {
  std::printf(
      "ABLATION — 16-BIT ACCUMULATOR MANAGEMENT (first layer, 27 taps)\n\n");
  const gemm::ConvGeometry g{3, 96, 96, 3, 2, 1};
  const data::SynthVoc dataset({.image_size = 96}, 31);
  Rng rng(32);
  Tensor weights(Shape{16, 27});
  for (int64_t i = 0; i < weights.numel(); ++i)
    weights[i] = rng.normal(0.0f, 0.3f);
  const SymmetricWeights sw = quantize_symmetric(weights);
  const auto ip = quant::choose_affine_params(0.0f, 1.0f);

  std::printf("%6s %14s %14s %14s\n", "shift", "mean |err|", "max |err|",
              "saturations/M");
  for (int shift = 0; shift <= 6; ++shift) {
    double mean_err = 0.0, max_err = 0.0;
    int64_t saturations = 0, total = 0;
    for (int64_t img = 0; img < 4; ++img) {
      const Tensor image = dataset.sample(img).image;
      Tensor golden(Shape{16, g.num_patches()});
      gemm::conv_via_im2col_f32(image.data(), g, weights.data(), 16, nullptr,
                                golden.data());
      const std::vector<int16_t> accs =
          acc16_variable_shift(image, g, ip, sw, shift, saturations);
      const float real_scale =
          ip.scale * sw.scale * static_cast<float>(1 << shift);
      for (int64_t i = 0; i < golden.numel(); ++i) {
        const float out =
            real_scale * static_cast<float>(accs[static_cast<size_t>(i)]);
        const double err = std::abs(out - golden[i]);
        mean_err += err;
        max_err = std::max(max_err, err);
      }
      total += golden.numel() * 27;
    }
    mean_err /= static_cast<double>(4 * 16 * g.num_patches());
    std::printf("%6d %14.4f %14.4f %14.1f%s\n", shift, mean_err, max_err,
                1e6 * static_cast<double>(saturations) /
                    static_cast<double>(total),
                shift == 4 ? "   <- paper's choice" : "");
  }

  std::printf(
      "\nsmall shifts overflow (saturations -> gross errors); large shifts\n"
      "discard precision (rounding error grows 2x per step). The paper's\n"
      "shift of 4 sits at the balance point, and its residual error is the\n"
      "documented 'small loss of detection accuracy' — which is why the\n"
      "float kernel remains available as a drop-in reference.\n");

  // Cross-check against the GEMM engine's shift-4 oracle: the symmetric
  // codes stored as u8 code+128 with lhs_zero=128 give the same centred
  // products, so the int16 accumulators (rescaled by 16) must match
  // exactly.
  const Tensor image = dataset.sample(0).image;
  int64_t sat = 0;
  const std::vector<int16_t> model =
      acc16_variable_shift(image, g, ip, sw, 4, sat);
  std::vector<uint8_t> lhs(sw.codes.size());
  for (size_t i = 0; i < lhs.size(); ++i)
    lhs[i] = static_cast<uint8_t>(sw.codes[i] + 128);
  const int64_t n = g.num_patches();
  const std::vector<uint8_t> qimage = quantize_image(image, ip);
  std::vector<uint8_t> columns(static_cast<size_t>(g.patch_size() * n));
  gemm::im2col(qimage.data(), g, columns.data(),
               static_cast<uint8_t>(ip.zero_point));
  std::vector<int32_t> engine(model.size());
  gemm::gemm_lowp_i32_shift4(16, n, g.patch_size(), lhs.data(), 128,
                             columns.data(), ip.zero_point, engine.data());
  int64_t max_delta = 0;
  for (size_t i = 0; i < model.size(); ++i)
    max_delta = std::max<int64_t>(
        max_delta, std::abs(int64_t{model[i]} * 16 - engine[i]));
  std::printf("\nengine shift-4 oracle (gemm_lowp_i32_shift4) vs instrumented "
              "model @shift 4: max |delta| = %lld\n",
              static_cast<long long>(max_delta));
  return max_delta == 0 ? 0 : 1;
}
