#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_simd.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {
namespace {

Tensor random_tensor(Rng& rng, Shape shape, float lo = -1.0f, float hi = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
  return t;
}

TEST(GemmRef, BetaSemantics) {
  Rng rng(41);
  const Tensor a = random_tensor(rng, Shape{3, 4});
  const Tensor b = random_tensor(rng, Shape{4, 5});
  Tensor c0(Shape{3, 5}, 10.0f), c1(Shape{3, 5}, 10.0f);
  gemm_ref(3, 5, 4, a.data(), b.data(), c0.data(), /*beta=*/0.0f);
  gemm_ref(3, 5, 4, a.data(), b.data(), c1.data(), /*beta=*/1.0f);
  for (int64_t i = 0; i < c0.numel(); ++i)
    EXPECT_NEAR(c1[i], c0[i] + 10.0f, 1e-5f);
}

TEST(GemmRef, ShapeMismatchThrows) {
  Tensor a(Shape{2, 3}), b(Shape{4, 5});
  EXPECT_THROW(gemm_ref(a, b), Error);
}

TEST(GemmLowp, ApproximatesFloatWithinQuantError) {
  Rng rng(43);
  const int64_t M = 6, N = 20, K = 30;
  const Tensor af = random_tensor(rng, Shape{M, K}, -2.0f, 2.0f);
  const Tensor bf = random_tensor(rng, Shape{K, N}, -1.0f, 3.0f);
  const auto pa = quant::choose_affine_params(-2.0f, 2.0f);
  const auto pb = quant::choose_affine_params(-1.0f, 3.0f);
  const TensorU8 aq = quant::quantize(af, pa);
  const TensorU8 bq = quant::quantize(bf, pb);
  std::vector<int32_t> acc(static_cast<size_t>(M * N));
  gemm_lowp_i32(M, N, K, aq.data(), pa.zero_point, bq.data(), pb.zero_point,
                acc.data());
  const Tensor expected = gemm_ref(af, bf);
  // Error bound: K terms, each within half a step on both operands.
  const float bound = static_cast<float>(K) *
                      (pa.scale * pb.scale / 4 + pa.scale * 3.0f / 2 +
                       pb.scale * 2.0f / 2);
  for (int64_t i = 0; i < M * N; ++i)
    EXPECT_NEAR(pa.scale * pb.scale * static_cast<float>(acc[static_cast<size_t>(i)]),
                expected[i], bound);
}

class ConvKernelProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
  // (channels, image size, stride)
};

TEST_P(ConvKernelProperty, FusedMatchesUnfused) {
  const auto [C, S, stride] = GetParam();
  const ConvGeometry g{C, S, S, 3, stride, 1};
  Rng rng(53);
  const Tensor img = random_tensor(rng, Shape{C, S, S});
  const int64_t out_channels = 10;
  const Tensor w = random_tensor(rng, Shape{out_channels, g.patch_size()});
  const Tensor bias = random_tensor(rng, Shape{out_channels});

  Tensor expected(Shape{out_channels, g.num_patches()});
  conv_via_im2col_f32(img.data(), g, w.data(), out_channels, bias.data(),
                      expected.data());
  Tensor got(expected.shape());
  fused_conv_f32(img.data(), g, w.data(), out_channels, bias.data(),
                 got.data());
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvKernelProperty,
                         ::testing::Values(std::tuple{3, 8, 1},
                                           std::tuple{3, 9, 2},
                                           std::tuple{1, 12, 1},
                                           std::tuple{5, 7, 1},
                                           std::tuple{2, 16, 2}));

// ---- The 16-bit accumulator step of the shift-4 oracle (paper §III-D) ----

TEST(Acc16Step, RoundsThenSaturates) {
  EXPECT_EQ(acc16_step(0, 15), 1);        // 15 >> 4 rounds to 1
  EXPECT_EQ(acc16_step(0, 7), 0);
  EXPECT_EQ(acc16_step(0, -25), -2);
  EXPECT_EQ(acc16_step(32760, 32767), 32767);  // saturating accumulation
  EXPECT_EQ(acc16_step(-32760, -32767), -32768);
}

}  // namespace
}  // namespace tincy::gemm
