#include "core/bitvector.hpp"

#include <bit>

namespace tincy {

BitVector::BitVector(int64_t size) : size_(size) {
  TINCY_CHECK_MSG(size >= 0, "size " << size);
  words_.resize(static_cast<size_t>((size + 63) / 64), 0);
}

bool BitVector::get(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < size_, "bit index " << i << " of " << size_);
  return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1u;
}

void BitVector::set(int64_t i, bool value) {
  TINCY_CHECK_MSG(i >= 0 && i < size_, "bit index " << i << " of " << size_);
  // Branch-free: binarizing random weights would mispredict half the time.
  auto& w = words_[static_cast<size_t>(i >> 6)];
  w = (w & ~(1ull << (i & 63))) | (static_cast<uint64_t>(value) << (i & 63));
}

int64_t BitVector::popcount() const {
  int64_t n = 0;
  for (uint64_t w : words_) n += std::popcount(w);
  return n;
}

}  // namespace tincy
