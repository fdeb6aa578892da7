#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/activation.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"
#include "core/string_utils.hpp"
#include "core/tensor.hpp"

namespace tincy {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{3, 416, 416};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 3 * 416 * 416);
  EXPECT_EQ(s.channels(), 3);
  EXPECT_EQ(s.height(), 416);
  EXPECT_EQ(s.width(), 416);
  EXPECT_EQ(s.to_string(), "(3, 416, 416)");
}

TEST(Shape, NegativeAxis) {
  const Shape s{2, 5, 7};
  EXPECT_EQ(s.dim(-1), 7);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_NE(Shape({1, 2}), Shape({1, 2, 1}));
}

TEST(Shape, EmptyShapeNumelIsOne) { EXPECT_EQ(Shape{}.numel(), 1); }

TEST(Shape, OutOfRangeAxisThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
}

TEST(Shape, TooManyDimsThrows) {
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), Error);
}

TEST(Activation, LeakyIsTheBranchFormBitForBit) {
  // activate<kLeaky> selects by mask instead of branching; every input
  // class must give the bits of the plain conditional.
  using Lim = std::numeric_limits<float>;
  std::vector<float> xs{
      0.0f, -0.0f, 1.0f, -1.0f, 1e-39f, -1e-39f,
      Lim::denorm_min(), -Lim::denorm_min(),  // denormals
      Lim::min() / 2, -Lim::min() / 2,
      Lim::min(), -Lim::min(), Lim::max(), -Lim::max(),
      Lim::infinity(), -Lim::infinity(),
      Lim::quiet_NaN(), -Lim::quiet_NaN(),
      std::bit_cast<float>(0x7fa00001u),  // NaNs with payloads
      std::bit_cast<float>(0xffc12345u)};
  Rng rng(5);
  for (int i = 0; i < 4096; ++i)  // every bit pattern is a float
    xs.push_back(std::bit_cast<float>(
        static_cast<uint32_t>(rng.uniform_int(0, 0xffffffffLL))));
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform(-10.0f, 10.0f));
  while (xs.size() % 16 != 0) xs.push_back(-0.0f);
  const auto bits = [](float v) { return std::bit_cast<uint32_t>(v); };
  // Scalar calls, and 16-lane loops as the GEMM epilogues run them.
  std::vector<float> lanes(xs.size());
  with_activation(Activation::kLeaky, [&](auto act) {
    for (size_t j0 = 0; j0 < xs.size(); j0 += 16)
      for (size_t j = j0; j < j0 + 16; ++j) lanes[j] = act(xs[j]);
  });
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    const float want = x > 0.0f ? x : 0.1f * x;
    EXPECT_EQ(bits(activate<Activation::kLeaky>(x)), bits(want))
        << "x bits " << std::hex << bits(x);
    EXPECT_EQ(bits(lanes[i]), bits(want)) << "x bits " << std::hex << bits(x);
  }
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ChwIndexing) {
  Tensor t(Shape{2, 3, 4});
  t.at(1, 2, 3) = 5.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 5.0f);
  EXPECT_THROW(t.at(2, 0, 0), Error);
  EXPECT_THROW(t.at(0, 3, 0), Error);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{2, 6});
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_THROW(t.reshape(Shape{5}), Error);
}

TEST(Tensor, RowColIndexing) {
  Tensor t(Shape{2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const float f = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtils, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, ParseKeyValue) {
  std::string k, v;
  EXPECT_TRUE(parse_key_value(" filters = 16 ", k, v));
  EXPECT_EQ(k, "filters");
  EXPECT_EQ(v, "16");
  EXPECT_FALSE(parse_key_value("no equals here", k, v));
}

TEST(StringUtils, ParseIntStrict) {
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4x"), Error);
  EXPECT_THROW(parse_int(""), Error);
}

TEST(StringUtils, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3"), -2000.0);
  EXPECT_THROW(parse_double("abc"), Error);
}

TEST(StringUtils, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(6971272984), "6,971,272,984");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace tincy
