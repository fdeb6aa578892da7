#include <gtest/gtest.h>

#include "core/bitvector.hpp"
#include "core/rng.hpp"

namespace tincy {
namespace {

BitVector random_bits(Rng& rng, int64_t n, double p = 0.5) {
  BitVector v(n);
  for (int64_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(p));
  return v;
}

TEST(BitVector, SetGet) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130);
  for (int64_t i = 0; i < 130; ++i) EXPECT_FALSE(v.get(i));
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3);
}

TEST(BitVector, BoundsChecked) {
  BitVector v(10);
  EXPECT_THROW(v.get(10), Error);
  EXPECT_THROW(v.set(-1, true), Error);
}

TEST(BitVector, EmptyVector) {
  const BitVector a(0);
  EXPECT_EQ(a.popcount(), 0);
  EXPECT_TRUE(a.words().empty());
}

TEST(BitVector, PopcountAcrossWordBoundaries) {
  Rng rng(100);
  for (const int64_t n : {1, 7, 63, 64, 65, 127, 128, 129, 1000}) {
    const BitVector v = random_bits(rng, n);
    int64_t expected = 0;
    for (int64_t i = 0; i < n; ++i) expected += v.get(i);
    EXPECT_EQ(v.popcount(), expected) << n << " bits";
    EXPECT_EQ(static_cast<int64_t>(v.words().size()), (n + 63) / 64);
  }
}

}  // namespace
}  // namespace tincy
